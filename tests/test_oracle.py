import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from ramseyprog import oracle
from ramseyprog.errors import BudgetExceededError
from ramseyprog.oracle import (
    CountReport,
    OracleBudget,
    all_progressions,
    count_mono_colorings,
    forced_count_check,
    primary_partition_check,
    progression_masks,
    progressions_from,
    verify_counting_inequality,
)
from ramseyprog.progressions import (
    Coloring,
    Family,
    Progression,
    find_monochromatic,
    forced_elements,
)

from brute import (
    conjugate,
    lexmin_primary,
    mono_count,
    mono_with_first,
    semi_counting_sum,
    weight_of,
)

SEMI1 = Family.semi(1)
SEMI2 = Family.semi(2)


def test_all_progressions_small():
    progs = all_progressions(5, 3, SEMI1)
    assert set(progs) == {(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5)}
    from5 = progressions_from(5, 3, SEMI2, 1, 1)
    assert from5 == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5))
    assert progressions_from(5, 3, SEMI1, 5, 1) == ()
    with pytest.raises(ValueError):
        progressions_from(5, 3, SEMI1, 0, 1)
    with pytest.raises(ValueError):
        progressions_from(5, 3, SEMI1, 1, 0)
    with pytest.raises(ValueError):
        all_progressions(5, 1, SEMI1)
    # the definition-level list equals brute's, tuple for tuple and in order,
    # for every first term and low-difference that fit
    families = [Family.semi(m) for m in (1, 2, 3)] + [Family.quasi(n) for n in (0, 1, 2)]
    for fam in families:
        for k in range(2, 6):
            for N in range(1, 15):
                for a in range(1, N + 1):
                    for d in range(1, N):
                        want = mono_with_first([0] * N, a, d, k, fam.kind, fam.param)
                        assert progressions_from(N, k, fam, a, d) == tuple(want)


def test_fewer_than_two_terms_refused_before_any_sweep(monkeypatch):
    # a "progression" of one term or none is no progression: it must be
    # refused up front, not after sweeping all r^N colorings
    def sweep(*args):
        raise AssertionError("swept colorings")

    monkeypatch.setattr(oracle, "_primaries", sweep)
    for k in (0, 1):
        with pytest.raises(ValueError, match="at least 2 terms"):
            progressions_from(5, k, SEMI1, 1, 1)
        for check in (primary_partition_check, forced_count_check):
            with pytest.raises(ValueError, match="at least 2 terms"):
                check(2, 5, k, SEMI1, 1, 1)


def test_progression_masks_dedupe():
    # (1,3,5) arises with d=1 (gaps 2,2) and d=2 (gaps 2,2 at scope 1)
    progs = all_progressions(6, 3, SEMI2)
    masks = progression_masks(6, 3, SEMI2)
    assert len(set(masks)) == len(masks) <= len(progs)


def test_count_pigeonhole_cases():
    rep = count_mono_colorings(2, 3, 2, SEMI1)
    assert rep.mono_count == 8 and rep.total == 8
    for m in (1, 2, 3):
        rep = count_mono_colorings(2, 2, 2, Family.semi(m))
        assert rep.mono_count == 2 and rep.total == 4


def test_count_ap_free_colorings_exist_at_8():
    rep = count_mono_colorings(2, 8, 3, SEMI1)
    assert rep.mono_count < 256
    for digits in ("01100110", "10011001"):
        chi = Coloring.from_digits(digits, 2)
        assert find_monochromatic(chi, 3, SEMI1) is None


def test_count_matches_brute_force():
    rng = random.Random(109)
    cases = [
        (2, N, k, fam)
        for N in range(2, 8)
        for k in (2, 3)
        for fam in (SEMI1, SEMI2, Family.quasi(0), Family.quasi(1))
    ] + [(3, 5, 3, SEMI1), (3, 6, 2, Family.quasi(1))]
    for r, N, k, fam in rng.sample(cases, 20):
        rep = count_mono_colorings(r, N, k, fam)
        assert rep.mono_count == mono_count(r, N, k, fam.kind, fam.param)
        assert rep.total == r**N



FAMILIES = (SEMI1, SEMI2, Family.quasi(0), Family.quasi(1))


def test_count_matches_brute_force_every_r_and_k():
    # every N from 1, so each k meets sizes where no progression fits
    # (count 0) and sizes where the first ones do (horizon at N)
    zeros = 0
    for r, sizes in ((2, range(1, 9)), (3, range(1, 7)), (4, range(1, 6))):
        for k in (2, 3, 4):
            for fam in FAMILIES:
                for N in sizes:
                    expected = mono_count(r, N, k, fam.kind, fam.param)
                    assert count_mono_colorings(r, N, k, fam).mono_count == expected
                    zeros += expected == 0
    assert zeros > 0


def test_count_horizon_is_N_whenever_a_progression_fits():
    # the translate of a progression that ends at N lies in [1, N] too, so
    # the walk's horizon (the last point ending a progression) is N
    for fam in FAMILIES:
        for N, k in ((7, 3), (12, 4), (9, 9), (5, 6)):
            masks = progression_masks(N, k, fam)
            assert max((m.bit_length() for m in masks), default=N) == N


def test_count_pinned():
    # recorded by full enumeration of every coloring
    for (r, N, k, fam), expected in (
        ((2, 20, 4, SEMI1), 1_047_134),
        ((3, 12, 3, SEMI1), 511_839),
        ((2, 16, 5, SEMI2), 63_672),
        ((3, 11, 3, Family.quasi(1)), 176_643),
        ((2, 20, 10, SEMI1), 15_932),
        ((3, 12, 6, SEMI1), 14_811),
    ):
        rep = count_mono_colorings(r, N, k, fam)
        assert (rep.mono_count, rep.total) == (expected, r**N)


def test_count_confirms_exact_thresholds():
    # a second proof of values that exact search finds (test_search pins
    # them): the walk shares no code with the search, every coloring of
    # [1, v] holds a monochromatic progression, and the valid colorings of
    # [1, v - 1] are counted
    budget = OracleBudget(max_points=40, max_colorings=3**27)
    for r, k, fam, v, valid in [
        (2, 4, SEMI1, 35, 28),
        (2, 5, SEMI2, 33, 20),
        (2, 5, Family.quasi(1), 33, 88),
        (3, 3, SEMI1, 27, 48),
    ]:
        assert count_mono_colorings(r, v, k, fam, budget).mono_count == r**v
        below = count_mono_colorings(r, v - 1, k, fam, budget)
        assert below.total - below.mono_count == valid


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        count_mono_colorings(2, 5, 3, SEMI1, OracleBudget(max_points=4))
    with pytest.raises(BudgetExceededError) as err:
        count_mono_colorings(3, 9, 3, SEMI1, OracleBudget(max_colorings=10_000))
    assert str(3**9) in str(err.value)


def test_verify_counting_inequality():
    rep = verify_counting_inequality(2, 10, 3, SEMI2)
    assert isinstance(rep.bound_value, Fraction)
    assert rep.bound_satisfied
    rep = verify_counting_inequality(2, 10, 4, Family.quasi(2))
    assert rep.bound_satisfied
    # no k-term progression fits: zero count, trivially satisfied
    rep = verify_counting_inequality(2, 3, 4, SEMI1)
    assert rep.mono_count == 0 and rep.bound_satisfied
    with pytest.raises(ValueError):
        verify_counting_inequality(3, 6, 3, SEMI1)


def test_mono_proportion_nondecreasing_in_N():
    for fam, k in ((SEMI1, 3), (SEMI2, 3), (Family.quasi(1), 4)):
        prev = Fraction(0)
        for N in range(3, 15):
            rep = count_mono_colorings(2, N, k, fam)
            prop = Fraction(rep.mono_count, rep.total)
            assert prop >= prev
            prev = prop


def test_mono_count_nesting_in_family_param():
    for N in (6, 9):
        for k in (3, 4):
            semi_counts = [
                count_mono_colorings(2, N, k, Family.semi(m)).mono_count
                for m in (1, 2, 3)
            ]
            assert semi_counts == sorted(semi_counts)
            quasi_counts = [
                count_mono_colorings(2, N, k, Family.quasi(n)).mono_count
                for n in (0, 1, 2)
            ]
            assert quasi_counts == sorted(quasi_counts)


def test_scope1_equals_diameter0():
    for N in (5, 8, 11):
        for k in (2, 3, 4):
            a = count_mono_colorings(2, N, k, SEMI1).mono_count
            b = count_mono_colorings(2, N, k, Family.quasi(0)).mono_count
            assert a == b


def test_primary_partition_examples():
    assert progressions_from(5, 3, SEMI1, 1, 1) == ((1, 2, 3),)
    assert primary_partition_check(2, 5, 3, SEMI1, 1, 1)
    assert primary_partition_check(2, 5, 3, SEMI2, 1, 1)
    assert primary_partition_check(2, 6, 3, Family.quasi(1), 2, 1)
    # no candidate progression at all: vacuously true
    assert progressions_from(5, 3, SEMI1, 5, 1) == ()
    assert primary_partition_check(2, 5, 3, SEMI1, 5, 1)
    assert primary_partition_check(3, 5, 3, SEMI2, 1, 1)


def test_forced_count_examples():
    assert forced_count_check(2, 12, 4, SEMI2, 1, 2)
    assert forced_count_check(2, 8, 3, SEMI1, 2, 2)  # zero-weight candidates only
    assert forced_count_check(2, 11, 3, Family.quasi(2), 1, 3)
    assert forced_count_check(3, 6, 3, Family.quasi(1), 1, 2)


ALL_FAMILIES = [Family.semi(m) for m in (1, 2, 3)] + [Family.quasi(n) for n in (0, 1, 2)]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
@pytest.mark.parametrize("r, N_max", [(2, 10), (3, 6)])
def test_window_counts_equal_full_counts(monkeypatch, r, N_max, fam):
    # the scan reads only the window W, so weighting each of its r^|W|
    # colorings by r^(N - |W|) gives the per-candidate counts of brute's
    # lexmin primaries over all r^N colorings; both checks then give the
    # verdicts of a full sweep, and the partition check walks each of the
    # r^N colorings exactly once
    walks, walk = [], oracle.primary_walk

    def recorded(colors, *args):
        walks.append((colors, walk(colors, *args)))
        return walks[-1][1]

    monkeypatch.setattr(oracle, "primary_walk", recorded)
    for N in range(2, N_max + 1):
        colorings = list(product(range(r), repeat=N))
        for k in (2, 3, 4):
            for a in range(1, N + 1):
                for d in range(1, (N - a) // (k - 1) + 1):
                    primaries = [lexmin_primary(c, a, d, k, fam.kind, fam.param)
                                 for c in colorings]
                    full = Counter(primaries)
                    last = min(N, a + (k - 1) * fam.allowed_gaps(d)[:N][-1])
                    window = Counter()
                    candidates = progressions_from(N, k, fam, a, d)
                    for _, terms in oracle._primaries(r, a, last, candidates):
                        window[terms] += r ** (N - (last - a + 1))
                    assert window == full, (N, k, a, d)

                    forced = {p: forced_elements(Progression(p, d, fam))
                              for p in full if p is not None}
                    lemma = all(c[e - 1] != c[a - 1] for c, p in zip(colorings, primaries)
                                if p is not None for e in forced[p])
                    bound = all(
                        count <= r * (r - 1) ** w * r ** (N - k - w)
                        for p, count in full.items() if p is not None
                        for w in [weight_of(conjugate(p, d, fam.kind), fam.kind, fam.param)]
                    )
                    assert forced_count_check(r, N, k, fam, a, d) == (lemma and bound)

                    walks.clear()
                    ok = primary_partition_check(r, N, k, fam, a, d)
                    assert len(walks) == r**N
                    assert ok == (dict(walks) == dict(zip(colorings, primaries)))


def test_forced_count_desk_scale_echo():
    # k=6 terms plus weight-6 forced cells fix 12 of N cells, leaving
    # 2^(N-11) colorings per color choice of the primary progression
    N, k = 12, 6
    assert forced_count_check(2, N, k, Family.semi(3), 1, 1)


def test_threshold_semantics_match_search():
    from ramseyprog.search import exact_threshold

    for fam, k in ((SEMI1, 3), (Family.semi(3), 3), (Family.quasi(2), 3)):
        value = exact_threshold(2, k, fam).value
        rep_at = count_mono_colorings(2, value, k, fam)
        rep_below = count_mono_colorings(2, value - 1, k, fam)
        assert rep_at.mono_count == rep_at.total
        assert rep_below.mono_count < rep_below.total
        least = next(
            N
            for N in range(k, value + 1)
            if count_mono_colorings(2, N, k, fam).mono_count == 2**N
        )
        assert least == value


def test_oracle_budget_rejects_invalid_sizes_and_caps():
    for r, N in ((0, 3), (2, -3)):
        with pytest.raises(ValueError):
            count_mono_colorings(r, N, 3, SEMI1)
    for caps in ({"max_points": -1}, {"max_colorings": -1}):
        with pytest.raises(ValueError):
            OracleBudget(**caps)


def test_verify_refuses_the_semi_scope_before_counting(monkeypatch):
    def never(*args):
        raise AssertionError("the count ran")

    monkeypatch.setattr(oracle, "count_mono_colorings", never)
    with pytest.raises(ValueError, match="specific to 2 colors"):
        verify_counting_inequality(3, 14, 9, SEMI1)
    # over budget, the budget refusal still wins
    with pytest.raises(BudgetExceededError):
        verify_counting_inequality(3, 30, 9, SEMI1)


def test_verify_holds_the_semi_frequency_vectors_to_the_budget(monkeypatch):
    # the closed form's power (1 - 2^-m)^(k - 1) has m(k - 1) bits; against
    # 2^4 = 16 colorings, k = 2 runs up to m = 16 and k = 3 up to m = 8
    budget = OracleBudget(max_colorings=16)
    for k, m in ((2, 16), (3, 8)):
        rep = verify_counting_inequality(2, 4, k, Family.semi(m), budget)
        assert rep == CountReport(4, k, Family.semi(m), 2, rep.mono_count, 16,
                                  semi_counting_sum(4, k, m), True)
    with pytest.raises(ValueError, match="need at least 2 terms"):
        verify_counting_inequality(2, 4, 1, Family.semi(10**23), budget)

    def never(*args):
        raise AssertionError("the bound or the count ran")

    monkeypatch.setattr(oracle, "semi_counting_bound", never)
    monkeypatch.setattr(oracle, "count_mono_colorings", never)
    for k, m in ((2, 17), (3, 9), (3, 10**23)):
        message = f"the scope-{m} bound at k = {k} needs m(k - 1) bits, past the budget of 16"
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            verify_counting_inequality(2, 4, k, Family.semi(m), budget)


def test_verify_holds_the_quasi_bound_to_the_budget(monkeypatch):
    # the transfer-matrix integers and the power r^(N - k + 1) together hold
    # about (n + 1)(k - 1) ceil(log2 r) bits; against a budget of 16, (r, n)
    # = (2, 1) and (3, 0) run up to k = 9, and (2, 0) up to k = 17
    budget = OracleBudget(max_colorings=16)
    for r, k, n in ((2, 9, 1), (3, 9, 0), (2, 17, 0)):
        rep = verify_counting_inequality(r, 2, k, Family.quasi(n), budget)
        assert (rep.mono_count, rep.bound_satisfied) == (0, True)
    # one color has no bits to count: its scope refusal stands
    with pytest.raises(ValueError, match="at least 2 colors"):
        verify_counting_inequality(1, 2, 10**9, Family.quasi(1), budget)

    def never(*args):
        raise AssertionError("the bound or the count ran")

    monkeypatch.setattr(oracle, "quasi_counting_bound", never)
    monkeypatch.setattr(oracle, "count_mono_colorings", never)
    for r, k, n in ((2, 10, 1), (3, 10, 0), (2, 18, 0), (2, 10**9, 1)):
        message = (f"the diameter-{n} bound at r = {r}, k = {k} needs "
                   f"(n + 1)(k - 1) ceil(log2 r) bits, past the budget of 16")
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            verify_counting_inequality(r, 2, k, Family.quasi(n), budget)


def test_primary_checks_can_fail(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(oracle, "primary_walk", lambda *args: None)
        assert not primary_partition_check(2, 5, 3, SEMI1, 1, 1)
    # a walk whose last term is one point off: (1, 2, 4) where the scan
    # finds (1, 2, 3) on the all-zero coloring
    walk = oracle.primary_walk

    def off_by_one(*args):
        terms = walk(*args)
        return terms and terms[:-1] + (terms[-1] + 1,)

    with monkeypatch.context() as m:
        m.setattr(oracle, "primary_walk", off_by_one)
        assert not primary_partition_check(2, 5, 3, SEMI1, 1, 1)
    # with d = 2, the point a + 1 lies inside every candidate and is never
    # a term or forced: colored like the primary, it breaks the exchange
    # lemma, though every count stays within its bound
    forced = oracle.forced_elements
    with monkeypatch.context() as m:
        m.setattr(oracle, "forced_elements", lambda p: forced(p) | {p.terms[0] + 1})
        assert not forced_count_check(2, 8, 3, SEMI1, 2, 2)
        assert not forced_count_check(2, 12, 4, SEMI2, 1, 2)
    # the weight-0 candidate (2, 4, 6) meets its bound exactly, so one more
    # forced cell makes it too small
    weight = oracle.weight
    monkeypatch.setattr(oracle, "weight", lambda p: weight(p) + 1)
    assert not forced_count_check(2, 8, 3, SEMI1, 2, 2)
