import random

import pytest

from brute import first_valid_coloring, has_mono, mono_ending_at, mono_through
from ramseyprog.errors import BudgetExceededError, WitnessFormatError
from ramseyprog.progressions import Coloring, Family, find_monochromatic
from ramseyprog.search import (
    SearchBudget,
    ThresholdCertificate,
    _mono_through_count,
    check_witness,
    exact_threshold,
    random_witness_search,
    read_witness,
    write_witness,
)

SEMI1 = Family.semi(1)
SEMI2 = Family.semi(2)


def test_pigeonhole_thresholds():
    for r in range(2, 6):
        for fam in (SEMI1, Family.semi(4), Family.quasi(0), Family.quasi(3)):
            cert = exact_threshold(r, 2, fam)
            assert cert.value == r + 1
            assert cert.exhaustive
            assert cert.witness.n_points == r
            assert check_witness(cert.witness, 2, fam)


def test_classical_three_term_threshold():
    cert = exact_threshold(2, 3, SEMI1)
    assert cert.value == 9
    assert cert.witness.n_points == 8
    assert check_witness(cert.witness, 3, SEMI1)
    assert cert.exhaustive
    assert cert.nodes_explored > 0


def test_monotonicity_in_scope_and_diameter():
    semi_values = [exact_threshold(2, 3, Family.semi(m)).value for m in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(semi_values, semi_values[1:]))
    quasi_values = [exact_threshold(2, 3, Family.quasi(n)).value for n in (0, 1, 2, 3)]
    assert all(a >= b for a, b in zip(quasi_values, quasi_values[1:]))
    # scope 1 and diameter 0 are both plain arithmetic progressions
    assert semi_values[0] == quasi_values[0] == 9


def test_certificate_soundness_small_grid():
    for r, k, fam in (
        (2, 3, SEMI2),
        (2, 4, Family.quasi(1)),
        (3, 2, Family.quasi(2)),
        (2, 3, Family.quasi(2)),
    ):
        cert = exact_threshold(r, k, fam)
        assert cert.exhaustive
        assert cert.witness.n_points == cert.value - 1
        assert check_witness(cert.witness, k, fam)


def test_exact_threshold_determinism():
    a = exact_threshold(2, 3, SEMI2)
    b = exact_threshold(2, 3, SEMI2)
    assert a == b


def test_exact_threshold_node_counts_pinned():
    # node counts are deterministic: they pin the search order, the
    # symmetry reduction and the rejection test exactly; r = 3 exercises the
    # bound on a new color read from the cursor
    for r, k, fam, value, nodes in [
        (2, 4, SEMI1, 35, 7_115),
        (2, 5, SEMI2, 33, 15_373),
        (2, 5, Family.quasi(1), 33, 25_599),
        (3, 3, SEMI1, 27, 59_120),
        (2, 6, Family.quasi(2), 49, 68_481),
        (3, 3, SEMI2, 17, 1_259),
        (3, 3, Family.quasi(1), 17, 1_130),
        (2, 4, SEMI2, 17, 289),
        (2, 4, Family.quasi(0), 35, 7_115),
        (2, 3, Family.semi(3), 5, 15),
    ]:
        cert = exact_threshold(r, k, fam)
        assert (cert.value, cert.nodes_explored) == (value, nodes)


def test_exact_threshold_partial_pinned():
    # the node budget runs out mid-search: the partial certificate's value,
    # node count and witness pin where the search stood
    budget = SearchBudget(max_nodes=200_000, max_length=80)
    with pytest.raises(BudgetExceededError) as err:
        exact_threshold(2, 6, Family.quasi(1), budget)
    partial = err.value.partial
    assert (partial.value, partial.nodes_explored, partial.exhaustive) == (
        63, 200_001, False
    )
    assert partial.witness.digits() == (
        "00000110011100011001111100000110011100011001111100000110011111"
    )


def test_exact_threshold_frontier_instance():
    # the largest instance the suite proves: 1,131,001 nodes over N up to 71,
    # with the witness re-checked at the definition and shown maximal
    family = Family.semi(3)
    cert = exact_threshold(2, 7, family, SearchBudget(max_length=80))
    assert (cert.value, cert.nodes_explored, cert.exhaustive) == (71, 1_131_001, True)
    assert cert.witness.digits() == (
        "0001000111011010001110100100011101101000111011010001110100100011101010"
    )
    colors = list(cert.witness.colors)
    assert check_witness(cert.witness, 7, family)
    assert not has_mono(colors, 7, "semi", 3)
    assert all(mono_ending_at(colors + [c], 7, "semi", 3) for c in (0, 1))


@pytest.mark.parametrize("r, k, kind, param", [
    (2, 3, "semi", 1), (2, 3, "semi", 2), (2, 3, "quasi", 1),
    (2, 4, "semi", 1), (2, 4, "semi", 2), (2, 4, "quasi", 1),
    (3, 3, "semi", 2), (3, 3, "quasi", 1),
])
def test_resumed_search_finds_the_first_valid_coloring(r, k, kind, param):
    # growing N on the path of the last witness and the forward check skip
    # only colorings that the plain depth-first search of brute.py rejects,
    # up to and including the threshold, where both find none
    family = Family(kind, param)
    want, N = (0,) * (k - 1), k
    while True:
        got = first_valid_coloring(r, N, k, kind, param)
        if got is None:
            break
        with pytest.raises(BudgetExceededError) as err:
            exact_threshold(r, k, family, SearchBudget(max_length=N))
        assert err.value.partial.witness.colors == got, N
        want, N = got, N + 1
    cert = exact_threshold(r, k, family)
    assert (cert.value, cert.witness.colors) == (N, want)


def _blocks_every_color(prefix, N, r, k, kind, param):
    """Each color at point N completes a monochromatic progression whose
    other terms lie in ``prefix`` (the points in between match no color)."""
    between = [-1] * (N - 1 - len(prefix))
    return all(
        mono_ending_at(list(prefix) + between + [c], k, kind, param) for c in range(r)
    )


def test_forward_check_prunes_the_resumed_path():
    # the forward check rejects the first `cut` points of the last witness
    # w, while a later point of w has a nonzero color: the search, grown on
    # w's path, must back out to the cut and retry the levels after it from
    # color 0, or it skips colorings
    for r, k, kind, param, N, cut in [
        (2, 4, "semi", 1, 25, 21),
        (3, 3, "semi", 2, 15, 12),
    ]:
        w = first_valid_coloring(r, N - 1, k, kind, param)
        assert _blocks_every_color(w[:cut], N, r, k, kind, param)
        assert not _blocks_every_color(w[:cut - 1], N, r, k, kind, param)
        assert any(w[cut:])
        with pytest.raises(BudgetExceededError) as err:
            exact_threshold(r, k, Family(kind, param), SearchBudget(max_length=N))
        assert err.value.partial.witness.colors == first_valid_coloring(
            r, N, k, kind, param
        )


def test_exact_threshold_budget_exhaustion():
    with pytest.raises(BudgetExceededError) as err:
        exact_threshold(2, 3, SEMI1, SearchBudget(max_nodes=10))
    partial = err.value.partial
    assert isinstance(partial, ThresholdCertificate)
    assert not partial.exhaustive
    assert partial.witness.n_points == partial.value - 1
    assert check_witness(partial.witness, 3, SEMI1)


def test_exact_threshold_max_length_exhaustion():
    with pytest.raises(BudgetExceededError) as err:
        exact_threshold(2, 3, SEMI1, SearchBudget(max_length=5))
    partial = err.value.partial
    assert partial is not None
    assert partial.value == 6  # a valid coloring of [1,5] was found
    assert not partial.exhaustive
    assert check_witness(partial.witness, 3, SEMI1)
    # k past max_length is refused before any node: the all-zero k - 1 prefix
    with pytest.raises(BudgetExceededError, match="max_length=5") as err:
        exact_threshold(2, 10, SEMI1, SearchBudget(max_length=5))
    partial = err.value.partial
    assert partial.nodes_explored == 0
    assert (partial.value, partial.witness.colors) == (10, (0,) * 9)


def test_exact_threshold_validation():
    with pytest.raises(ValueError):
        exact_threshold(2, 1, SEMI1)
    with pytest.raises(ValueError):
        exact_threshold(1, 3, SEMI1)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


def test_check_witness_cases():
    assert check_witness(Coloring.from_digits("01100110", 2), 3, SEMI1)
    assert not check_witness(Coloring((1,) * 5, 2), 3, SEMI1)
    assert not check_witness(Coloring.from_digits("10011001", 2), 3, Family.quasi(1))


def test_random_witness_trivial_sizes():
    # no k-term progression fits in [1, k-1]: the first draw is returned
    budget = SearchBudget(max_nodes=1, seed=5, restarts=1)
    chi = random_witness_search(2, 4, 5, SEMI2, budget)
    assert chi is not None and chi.n_points == 4


def test_random_witness_finds_known_coloring():
    budget = SearchBudget(max_nodes=10_000, seed=3, restarts=5)
    chi = random_witness_search(2, 8, 3, SEMI1, budget)
    assert chi is not None
    assert check_witness(chi, 3, SEMI1)


def test_random_witness_determinism():
    budget = SearchBudget(max_nodes=10_000, seed=11, restarts=5)
    a = random_witness_search(2, 8, 3, SEMI1, budget)
    b = random_witness_search(2, 8, 3, SEMI1, budget)
    assert a == b


def test_mono_through_count_matches_definition():
    # the repair step's score at r = 3 and 4, for every point and color
    rng = random.Random(21)
    families = [SEMI1, SEMI2, Family.quasi(0), Family.quasi(1)]
    hits = 0
    for r in (3, 4):
        for _ in range(60):
            N = rng.randint(2, 11)
            k = rng.randint(2, 4)
            colors = [rng.randrange(r) for _ in range(N)]
            fam = rng.choice(families)
            for p in range(1, N + 1):
                for c in range(r):
                    want = mono_through(colors, p, c, k, fam.kind, fam.param)
                    assert _mono_through_count(colors, p, c, k, fam) == want
                    hits += want > 1
    assert hits > 50


def test_random_witness_golden_digits():
    # seeded trajectories are reproducible across versions; the r = 3 cases
    # also pin the repair step's scoring of candidate colors
    for r, N, k, fam, seed, digits in [
        (2, 30, 6, Family.quasi(2), 0, "000111100001110001111100001110"),
        (2, 30, 6, Family.quasi(2), 1, "111110000011100001111100011110"),
        (3, 22, 3, SEMI1, 0, "2020122010010122110202"),
        (3, 22, 3, SEMI1, 3, "0221101220100101221220"),
    ]:
        budget = SearchBudget(max_nodes=20_000, seed=seed)
        chi = random_witness_search(r, N, k, fam, budget)
        assert chi is not None and chi.digits() == digits


def test_random_witness_absent_is_none():
    # no valid coloring of [1,9] exists for 3-term arithmetic progressions
    budget = SearchBudget(max_nodes=400, seed=0, restarts=4)
    assert random_witness_search(2, 9, 3, SEMI1, budget) is None


def test_random_witness_fewer_moves_than_restarts():
    # with max_nodes < restarts, each attempt gets one move and only
    # max_nodes attempts run: all 10 would find 01011010 at seed 5
    for r, N, max_nodes, seed, digits in [
        (2, 8, 3, 0, "10100101"),
        (2, 8, 3, 5, None),
        (3, 12, 4, 0, "010021220010"),
        (3, 12, 4, 5, None),
    ]:
        budget = SearchBudget(max_nodes=max_nodes, restarts=10, seed=seed)
        chi = random_witness_search(r, N, 3, SEMI1, budget)
        assert (chi and chi.digits()) == digits


def test_random_witness_multicolor_repair():
    budget = SearchBudget(max_nodes=5_000, seed=2, restarts=5)
    chi = random_witness_search(3, 12, 3, SEMI1, budget)
    assert chi is not None
    assert chi.r == 3
    assert check_witness(chi, 3, SEMI1)


def test_random_witness_validation():
    with pytest.raises(ValueError):
        random_witness_search(2, 5, 1, SEMI1)


def test_witness_roundtrip(tmp_path):
    cert = exact_threshold(2, 3, Family.quasi(1))
    path = tmp_path / "w.txt"
    write_witness(str(path), cert.witness, 3, Family.quasi(1))
    chi, k, fam = read_witness(str(path))
    assert chi == cert.witness
    assert k == 3 and fam == Family.quasi(1)
    # bit-exact file round trip
    write_witness(str(tmp_path / "w2.txt"), chi, k, fam)
    assert (tmp_path / "w2.txt").read_bytes() == path.read_bytes()


def test_write_witness_beyond_ten_colors_leaves_no_file(tmp_path):
    path = tmp_path / "w.txt"
    with pytest.raises(ValueError, match="at most 10 colors"):
        write_witness(str(path), Coloring((10, 0, 1), 11), 3, SEMI1)
    assert not path.exists()


def test_witness_format_errors(tmp_path):
    def attempt(text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(WitnessFormatError):
            read_witness(str(p))

    attempt("not json\n0101\n")
    attempt('["list", "header"]\n0101\n')
    attempt('{"family": "semi", "param": 1}\n0101\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 5}\n0101\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 4}\n0121\n')
    attempt('{"family": "cubic", "param": 1, "r": 2, "k": 3, "n_points": 4}\n0101\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": 1, "n_points": 4}\n0101\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 0}\n\n')
    # header numbers must be JSON integers: no floats, strings or bools
    attempt('{"family": "semi", "param": true, "r": 2.7, "k": 3, "n_points": 3}\n010\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": "3", "n_points": 3}\n010\n')
    attempt('{"family": "semi", "param": 1, "r": 2.0, "k": 3, "n_points": 3}\n010\n')
    attempt('{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 3.0}\n010\n')
    attempt('{"family": "quasi", "param": false, "r": 2, "k": 3, "n_points": 3}\n010\n')
    attempt('{"family": "semi", "param": 1, "r": true, "k": 3, "n_points": 3}\n010\n')
    with pytest.raises(WitnessFormatError):
        read_witness(str(tmp_path / "missing.txt"))


def test_witness_search_end_to_end_includes_verifier(tmp_path):
    rng = random.Random(110)
    for _ in range(3):
        seed = rng.randint(0, 10**6)
        budget = SearchBudget(max_nodes=20_000, seed=seed, restarts=5)
        chi = random_witness_search(2, 12, 4, SEMI2, budget)
        if chi is None:
            continue
        path = tmp_path / f"w{seed}.txt"
        write_witness(str(path), chi, 4, SEMI2)
        loaded, k, fam = read_witness(str(path))
        assert check_witness(loaded, k, fam)
        assert find_monochromatic(loaded, k, fam) is None
