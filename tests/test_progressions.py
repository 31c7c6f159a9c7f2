import random
from collections import Counter
from itertools import product

import pytest

from ramseyprog.progressions import (
    Coloring,
    Family,
    Progression,
    chain_starts,
    conjugate_vector,
    find_monochromatic,
    forced_elements,
    primary_progression,
    primary_walk,
    weight,
)

from brute import (
    conjugate,
    frequency_vector,
    frequency_vectors,
    lexmin_primary,
    longest_chain,
    multinomial,
    weight_of,
)

SEMI3 = Family.semi(3)
WORKED_TERMS = (17, 32, 42, 47, 62, 72)


def test_family_validation():
    assert Family.semi(1).allowed_gaps(2) == range(2, 3, 2)
    assert list(Family.semi(3).allowed_gaps(5)) == [5, 10, 15]
    assert list(Family.quasi(1).allowed_gaps(2)) == [2, 3]
    assert list(Family.quasi(0).allowed_gaps(4)) == [4]
    with pytest.raises(ValueError):
        Family.semi(0)
    with pytest.raises(ValueError):
        Family.quasi(-1)
    with pytest.raises(ValueError):
        Family("cubic", 1)
    with pytest.raises(ValueError):
        Family.semi(2).allowed_gaps(0)


def test_coloring_basics():
    chi = Coloring((0, 1, 1, 0), 2)
    assert chi.n_points == 4
    assert chi.colors[1 - 1] == 0 and chi.colors[3 - 1] == 1
    assert chi.digits() == "0110"
    assert Coloring.from_digits("0110", 2) == chi
    with pytest.raises(ValueError):
        Coloring((0, 2), 2)
    with pytest.raises(ValueError):
        Coloring((), 2)
    with pytest.raises(ValueError):
        Coloring((0,), 1)
    with pytest.raises(ValueError):
        Coloring.from_digits("01x0", 2)


def test_progression_validation_cases():
    assert Progression(WORKED_TERMS, 5, SEMI3).terms == WORKED_TERMS
    assert Progression([1, 3, 5, 7], 2, Family.semi(1)).terms == (1, 3, 5, 7)
    Progression((1, 4, 6), 2, Family.quasi(1))
    for terms, d, family in [((1, 4, 6), 2, Family.quasi(0)), ((1, 2, 9), 1, SEMI3)]:
        with pytest.raises(ValueError, match=r"^gaps of .* not allowed for .* "
                                             rf"with low-difference {d}$"):
            Progression(terms, d, family)
    # malformed input is refused before the gaps are looked at, in this order
    for terms, d, message in [
        ((3, 2, 1), 1, "terms must be strictly increasing"),
        ((1, 2, 3), 0, "low-difference must be a positive integer"),
        ((5,), 1, "a progression needs at least two terms"),
        ((5,), 0, "a progression needs at least two terms"),
        ((0, 1, 2), 1, "terms must be positive integers"),
        ((0, 2, 1), 0, "low-difference must be a positive integer"),
        ((0, 2, 1), 1, "terms must be positive integers"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Progression(terms, d, SEMI3)


def test_progression_type_enforces_validity():
    Progression((1, 4, 6), 2, Family.quasi(1))
    with pytest.raises(ValueError):
        Progression((1, 4, 6), 2, Family.quasi(0))
    with pytest.raises(ValueError):
        Progression((1, 2, 9), 1, Family.semi(3))


def _with_entries(entries, family, a=1, d=2):
    """The progression from a with low-difference d whose conjugate vector
    is ``entries``; Progression refuses an entry outside the family."""
    terms = [a]
    for u in entries:
        terms.append(terms[-1] + (d * (u + 1) if family.kind == "semi" else d + u))
    return Progression(tuple(terms), d, family)


def test_conjugate_vector_worked_example():
    p = Progression(WORKED_TERMS, 5, SEMI3)
    assert conjugate_vector(p) == (2, 1, 0, 2, 1)


def test_conjugate_vector_cases():
    ap = Progression((3, 7, 11, 15), 4, Family.semi(2))
    assert conjugate_vector(ap) == (0, 0, 0)
    q = Progression((1, 4, 6), 2, Family.quasi(1))
    assert conjugate_vector(q) == (1, 0)
    cases = (((1, 0), Family.quasi(1)), ((2, 0, 1), SEMI3), ((3,), Family.quasi(4)))
    for entries, family in cases:
        assert conjugate_vector(_with_entries(entries, family, a=5, d=3)) == entries
    # no progression has an entry past the diameter, nor an empty vector
    with pytest.raises(ValueError):
        _with_entries((0, 3), Family.quasi(2))
    with pytest.raises(ValueError):
        _with_entries((), Family.quasi(2))


def test_frequency_vector():
    # the histogram that groups conjugate vectors in the semi counting sum
    assert frequency_vector((2, 1, 0, 2, 1), 3) == (1, 2, 2)
    assert frequency_vector((0, 0, 0, 0), 3) == (4, 0, 0)
    assert frequency_vector((0, 1, 0, 1), 2) == (2, 2)
    u = conjugate_vector(Progression(WORKED_TERMS, 5, SEMI3))
    assert frequency_vector(u, 3) == (1, 2, 2)
    # exactly multinomial(v) conjugate vectors share each histogram v
    for t, m in ((4, 3), (5, 2), (3, 4)):
        shared = Counter(frequency_vector(u, m) for u in product(range(m), repeat=t))
        assert dict(shared) == {v: multinomial(v) for v in frequency_vectors(t, m)}


def test_pair_multiplicity():
    # a quasi vector (x, y) weighs y plus its one pair term min(x, n - y)
    for x, y, n, pair in ((1, 0, 1, 1), (0, 1, 1, 0), (0, 7, 9, 0), (2, 1, 2, 1)):
        assert weight(_with_entries((x, y), Family.quasi(n))) == y + pair
    # an excess outside [0, n] is not a gap of the family
    for x, y in ((3, 0), (0, -1)):
        with pytest.raises(ValueError):
            _with_entries((x, y), Family.quasi(2))


def test_weight_semi_is_entry_sum():
    assert weight(Progression(WORKED_TERMS, 5, SEMI3)) == 6


def test_weight_quasi():
    assert weight(_with_entries((1, 0, 1), Family.quasi(1))) == 2
    assert weight(_with_entries((2, 1, 0), Family.quasi(2))) == 2
    # single-entry vector: no pairs, weight is the entry itself
    assert weight(_with_entries((3,), Family.quasi(4))) == 3


def test_weight_quasi_diameter1_counts_10_substrings():
    rng = random.Random(101)
    fam = Family.quasi(1)
    for _ in range(200):
        entries = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 10)))
        pairs = sum(
            1 for x, y in zip(entries, entries[1:]) if (x, y) == (1, 0)
        )
        assert weight(_with_entries(entries, fam)) == entries[-1] + pairs


def test_semi_weight_matches_frequency_inner_product():
    rng = random.Random(102)
    for _ in range(200):
        m = rng.randint(1, 5)
        entries = tuple(rng.randint(0, m - 1) for _ in range(rng.randint(1, 9)))
        v = frequency_vector(entries, m)
        inner = sum(j * vj for j, vj in enumerate(v))
        assert weight(_with_entries(entries, Family.semi(m))) == inner


def test_forced_elements_worked_example():
    p = Progression(WORKED_TERMS, 5, SEMI3)
    assert forced_elements(p) == {22, 27, 37, 52, 57, 67}


def test_forced_elements_cases():
    ap = Progression((2, 5, 8, 11), 3, Family.semi(2))
    assert forced_elements(ap) == set()
    q = Progression((1, 4, 6), 2, Family.quasi(1))
    assert forced_elements(q) == {3}


def _random_progression(rng, family):
    k = rng.randint(2, 7)
    d = rng.randint(1, 4)
    a = rng.randint(1, 10)
    terms = [a]
    for _ in range(k - 1):
        terms.append(terms[-1] + rng.choice(list(family.allowed_gaps(d))))
    return Progression(tuple(terms), d, family)


def test_forced_elements_count_and_span():
    rng = random.Random(103)
    families = [Family.semi(m) for m in (1, 2, 3, 4)] + [
        Family.quasi(n) for n in (0, 1, 2, 3)
    ]
    for _ in range(500):
        p = _random_progression(rng, rng.choice(families))
        forced = forced_elements(p)
        kind, param = p.family.kind, p.family.param
        assert conjugate_vector(p) == conjugate(p.terms, p.low_difference, kind)
        assert weight(p) == weight_of(conjugate_vector(p), kind, param) == len(forced)
        assert all(p.terms[0] < e < p.terms[-1] for e in forced)
        assert forced.isdisjoint(p.terms)


def _exchange(p, e):
    """The progression with the same first term and low-difference that the
    forced element e certifies: lex-smaller in conjugate order than p."""
    terms = list(p.terms)
    d = p.low_difference
    if p.family.kind == "semi":
        # insert e into its gap and drop the last term
        i = next(i for i in range(len(terms) - 1) if terms[i] < e < terms[i + 1])
        return Progression(
            tuple(terms[: i + 1] + [e] + terms[i + 1 : -1]), d, p.family
        )
    # quasi: e replaces the term ending the gap it falls in
    i = next(i for i in range(len(terms) - 1) if terms[i] < e < terms[i + 1])
    terms[i + 1] = e
    return Progression(tuple(terms), d, p.family)


def test_exchange_soundness():
    rng = random.Random(104)
    families = [Family.semi(m) for m in (1, 2, 3)] + [
        Family.quasi(n) for n in (1, 2, 3)
    ]
    checked = 0
    for _ in range(400):
        p = _random_progression(rng, rng.choice(families))
        u = conjugate_vector(p)
        for e in forced_elements(p):
            swapped = _exchange(p, e)
            assert swapped.terms[0] == p.terms[0]
            assert len(swapped.terms) == len(p.terms)
            assert e in swapped.terms
            assert conjugate_vector(swapped) < u
            checked += 1
    assert checked > 300


def test_primary_progression_examples():
    # R={1,4,6}: the d=2 diameter-1 candidates through 3 and 5 are bichromatic
    chi = Coloring.from_digits("100101", 2)
    p = primary_progression(chi, 1, 2, 3, Family.quasi(1))
    assert p is not None and p.terms == (1, 4, 6)
    assert conjugate_vector(p) == (1, 0)

    mono = Coloring((1,) * 9, 2)
    p = primary_progression(mono, 1, 1, 4, Family.semi(3))
    assert p.terms == (1, 2, 3, 4)
    assert conjugate_vector(p) == (0, 0, 0)

    chi = Coloring.from_digits("11001", 2)
    p = primary_progression(chi, 1, 1, 3, Family.semi(3))
    assert p is not None and p.terms == (1, 2, 5)
    assert conjugate_vector(p) == (0, 2)


def test_primary_progression_requires_backtracking():
    # r at {1,3,4,7}: the lex-min start (1,3) dead-ends, yet (1,4,7) exists,
    # so committing to the smallest feasible entry without backtracking fails
    chi = Coloring.from_digits("1011001", 2)
    p = primary_progression(chi, 1, 2, 3, Family.quasi(1))
    assert p is not None
    assert p.terms == (1, 4, 7)
    assert conjugate_vector(p) == (1, 1)


def test_primary_progression_input_validation():
    chi = Coloring((0, 0, 0), 2)
    with pytest.raises(ValueError):
        primary_progression(chi, 0, 1, 2, Family.semi(1))
    with pytest.raises(ValueError):
        primary_progression(chi, 1, 0, 2, Family.semi(1))
    with pytest.raises(ValueError):
        primary_progression(chi, 1, 1, 1, Family.semi(1))


def test_primary_progression_matches_brute_force():
    rng = random.Random(105)
    families = [Family.semi(m) for m in (1, 2, 3)] + [
        Family.quasi(n) for n in (0, 1, 2)
    ]
    agreements = long_agreements = 0
    # 800 draws each of (r, largest N, largest k): short 2-colorings, then
    # 3-colorings and 2-colorings with longer progressions on wider intervals
    draws = [(2, 12, 4), (3, 30, 6), (2, 30, 6)]
    for r, max_n, max_k in (draw for draw in draws for _ in range(800)):
        N = rng.randint(3, max_n)
        chi = Coloring(tuple(rng.randrange(r) for _ in range(N)), r)
        fam = rng.choice(families)
        k = rng.randint(2, max_k)
        a = rng.randint(1, N)
        d = rng.randint(1, 3)
        got = primary_progression(chi, a, d, k, fam)
        want = lexmin_primary(chi.colors, a, d, k, fam.kind, fam.param)
        # the walk on the raw tuple, as the oracle's partition check runs it
        gaps = tuple(fam.allowed_gaps(d)[:N])
        walked = primary_walk(chi.colors, a, k, gaps, min(N, a + (k - 1) * gaps[-1]))
        if want is None:
            assert got is None and walked is None
        else:
            assert got is not None and got.terms == want == walked
            agreements += 1
            long_agreements += k >= 5
    assert agreements > 100 and long_agreements > 10


def test_primary_forcing_property():
    rng = random.Random(106)
    families = [Family.semi(m) for m in (1, 2, 3)] + [
        Family.quasi(n) for n in (0, 1, 2)
    ]
    hits = 0
    for _ in range(600):
        N = rng.randint(5, 30)
        chi = Coloring(tuple(rng.randint(0, 1) for _ in range(N)), 2)
        fam = rng.choice(families)
        k = rng.randint(3, 5)
        a = rng.randint(1, N)
        d = rng.randint(1, 3)
        p = primary_progression(chi, a, d, k, fam)
        if p is None:
            continue
        hits += 1
        base = chi.colors[p.terms[0] - 1]
        for e in forced_elements(p):
            assert chi.colors[e - 1] != base
    assert hits > 100


def test_find_monochromatic_examples():
    assert (
        find_monochromatic(Coloring.from_digits("01100110", 2), 3, Family.semi(1))
        is None
    )
    p = find_monochromatic(Coloring.from_digits("10011001", 2), 3, Family.quasi(1))
    assert p is not None and p.terms == (1, 4, 8) and p.low_difference == 3
    allsame = Coloring((1,) * 5, 2)
    p = find_monochromatic(allsame, 5, Family.semi(2))
    assert p.terms == (1, 2, 3, 4, 5)
    tiny = Coloring((0, 1), 2)
    assert find_monochromatic(tiny, 3, Family.semi(1)) is None
    with pytest.raises(ValueError, match="at least two terms"):
        find_monochromatic(allsame, 1, Family.semi(1))


def test_find_monochromatic_matches_brute_force():
    # the least (a, d, conjugate vector) triple: the first primary over a
    # ascending, then d ascending
    rng = random.Random(107)
    families = [Family.semi(m) for m in (1, 2)] + [Family.quasi(n) for n in (0, 1)]
    from brute import has_mono

    found = 0
    for _ in range(300):
        r = rng.choice((2, 3))
        N = rng.randint(2, 14)
        chi = Coloring(tuple(rng.randrange(r) for _ in range(N)), r)
        fam = rng.choice(families)
        k = rng.randint(2, 4)
        got = find_monochromatic(chi, k, fam)
        want = next(
            ((terms, d) for a in range(1, N + 1)
             for d in range(1, (N - 1) // (k - 1) + 1)
             for terms in [lexmin_primary(chi.colors, a, d, k, fam.kind, fam.param)]
             if terms is not None),
            None,
        )
        assert (got is not None) == has_mono(chi.colors, k, fam.kind, fam.param)
        if want is None:
            assert got is None
            continue
        found += 1
        assert (got.terms, got.low_difference) == want
        assert Progression(got.terms, got.low_difference, fam) == got
    assert found > 100


def test_find_monochromatic_one_color_certificate():
    # the long certificate of the witness benchmark: one color throughout
    got = find_monochromatic(Coloring((0,) * 1500, 2), 1200, Family.semi(1))
    assert got.terms == tuple(range(1, 1201)) and got.low_difference == 1


def test_find_monochromatic_cuts_later_passes_to_the_window(monkeypatch):
    # point 1 has a color of its own, so the least progression has d = 1 and
    # starts at point 2 (bit 1); every later pass then only needs the chains
    # from point 1, which end within (k - 1) * max gap + 1 points, where
    # without the cut it would shift all N points
    import ramseyprog.progressions as progressions

    kernel, seen = progressions.chain_starts, []

    def recorded(points, gaps, k):
        seen.append((gaps, points.bit_length()))
        return kernel(points, gaps, k)

    monkeypatch.setattr(progressions, "chain_starts", recorded)
    rng = random.Random(109)
    for fam, k in [(Family.semi(1), 4), (Family.semi(2), 3), (Family.quasi(1), 5)]:
        seen.clear()
        colors = (2,) + (0,) * k + (1,) + tuple(rng.randrange(2) for _ in range(200))
        got = find_monochromatic(Coloring(colors, 3), k, fam)
        assert got.terms == tuple(range(2, k + 2)) and got.low_difference == 1
        later = [(gaps, bits) for gaps, bits in seen if gaps[0] > 1]
        assert len(later) > 20
        assert all(bits <= (k - 1) * gaps[-1] + 1 for gaps, bits in later)


def test_chain_starts_matches_brute_force():
    # every low-difference's sets for every color class: a point's count of
    # T_j holding it is the longest chain of its color that starts there
    rng = random.Random(108)
    families = [Family.semi(m) for m in (1, 2, 3)] + [
        Family.quasi(n) for n in (0, 1, 2)
    ]
    long_chains = 0
    for _ in range(400):
        r = rng.choice((2, 3))
        N = rng.randint(1, 11)
        colors = [rng.randrange(r) for _ in range(N)]
        fam = rng.choice(families)
        for d in range(1, max(N, 2)):
            gaps = tuple(fam.allowed_gaps(d))
            for c in range(r):
                points = sum(1 << i for i, x in enumerate(colors) if x == c)
                sets = chain_starts(points, gaps, N + 1)
                assert len(sets) == N + 1
                for p in range(1, N + 1):
                    got = sum(t >> (p - 1) & 1 for t in sets)
                    if colors[p - 1] != c:
                        assert got == 0
                        continue
                    want = longest_chain(colors, p, d, fam.kind, fam.param, ending=False)
                    assert got == want
                    long_chains += want >= 4
    assert long_chains > 50
