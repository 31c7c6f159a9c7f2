"""The contract of the package's frozen records: construction by position
and by keyword (class-level defaults, then validation), equality and hashing
on the class and the field values in order, the repr text, and refusal of
assignment and deletion."""

from fractions import Fraction

import pytest

from ramseyprog.bounds import (
    BoundResult,
    perron_bracket,
    transfer_matrix,
    weighted_conjugate_sum,
)
from ramseyprog.oracle import CountReport, OracleBudget
from ramseyprog.progressions import Coloring, Family, Progression
from ramseyprog.search import SearchBudget, ThresholdCertificate

SEMI1, SEMI2, QUASI1 = Family("semi", 1), Family("semi", 2), Family("quasi", 1)
WITNESS = Coloring((0, 0, 1, 1, 0, 0, 1, 1), 2)

# (class, fields by keyword, a record differing in one field, its repr)
CASES = [
    (Family, dict(kind="semi", param=1), Family("semi", 2),
     "Family(kind='semi', param=1)"),
    (Coloring, dict(colors=(0, 1, 1), r=2), Coloring((0, 1, 1), 3),
     "Coloring(colors=(0, 1, 1), r=2)"),
    (Progression, dict(terms=(1, 2, 3), low_difference=1, family=SEMI1),
     Progression((1, 2, 3), 1, SEMI2),
     "Progression(terms=(1, 2, 3), low_difference=1, "
     "family=Family(kind='semi', param=1))"),
    (SearchBudget, dict(max_nodes=2_000_000, max_length=64, seed=0, restarts=10),
     SearchBudget(seed=1),
     "SearchBudget(max_nodes=2000000, max_length=64, seed=0, restarts=10)"),
    (ThresholdCertificate,
     dict(family=SEMI1, r=2, k=3, value=9, witness=WITNESS, nodes_explored=100,
          exhaustive=True),
     ThresholdCertificate(SEMI1, 2, 3, 9, WITNESS, 100, False),
     "ThresholdCertificate(family=Family(kind='semi', param=1), r=2, k=3, "
     "value=9, witness=Coloring(colors=(0, 0, 1, 1, 0, 0, 1, 1), r=2), "
     "nodes_explored=100, exhaustive=True)"),
    (OracleBudget, dict(max_points=24, max_colorings=2**24), OracleBudget(25),
     "OracleBudget(max_points=24, max_colorings=16777216)"),
    (CountReport,
     dict(N=6, k=3, family=SEMI1, r=2, mono_count=10, total=64,
          bound_value=Fraction(3, 2), bound_satisfied=False),
     CountReport(6, 3, SEMI1, 2, 10, 64),
     "CountReport(N=6, k=3, family=Family(kind='semi', param=1), r=2, "
     "mono_count=10, total=64, bound_value=Fraction(3, 2), bound_satisfied=False)"),
    (BoundResult,
     dict(family=QUASI1, r=2, base=1.5, lambda_max=1.25, lambda_lo=Fraction(5, 4),
          lambda_hi=Fraction(5, 4), useful=True),
     BoundResult(QUASI1, 2, 1.5, 1.25, Fraction(5, 4), Fraction(5, 4), False),
     "BoundResult(family=Family(kind='quasi', param=1), r=2, base=1.5, "
     "lambda_max=1.25, lambda_lo=Fraction(5, 4), lambda_hi=Fraction(5, 4), "
     "useful=True)"),
]


@pytest.mark.parametrize("cls, fields, other, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, fields, other, text):
    rec = cls(*fields.values())
    assert cls(**fields) == rec and not cls(**fields) != rec
    assert hash(cls(**fields)) == hash(rec) == hash(tuple(fields.values()))
    assert rec != other and not rec == other
    assert rec != tuple(fields.values())
    twin_cls = type("Twin", (cls,), {})  # another class, the same field values
    assert twin_cls(*fields.values()) != rec and rec != twin_cls(*fields.values())
    assert repr(rec) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) == fields[name]
    assert rec == cls(*fields.values())


def test_keyword_construction_fills_the_defaults():
    assert SearchBudget(seed=3) == SearchBudget(2_000_000, 64, 3, 10)
    assert SearchBudget() == SearchBudget(2_000_000, 64, 0, 10)
    assert OracleBudget(max_colorings=5) == OracleBudget(24, 5)
    assert Coloring(colors=[0, 1]) == Coloring((0, 1), 2)  # stored as a tuple
    rep = CountReport(N=6, k=3, family=SEMI1, r=2, mono_count=10, total=64)
    assert rep == CountReport(6, 3, SEMI1, 2, 10, 64, None, None)
    assert (rep.bound_value, rep.bound_satisfied) == (None, None)


@pytest.mark.parametrize("build, message", [
    (lambda: Family("cubic", 1), "unknown family kind 'cubic'"),
    (lambda: Family("semi", 0), "semi-progression scope must be at least 1"),
    (lambda: Family("quasi", -1), "quasi-progression diameter must be at least 0"),
    (lambda: Coloring((0, 1), 1), "a coloring needs at least 2 colors"),
    (lambda: Coloring(()), "a coloring must cover at least one point"),
    (lambda: Coloring((0, 2)), "colors must be integers in [0, 1]"),
    (lambda: Progression((1,), 1, SEMI1), "a progression needs at least two terms"),
    (lambda: Progression((1, 3, 4), 1, SEMI1),
     "gaps of (1, 3, 4) not allowed for semi(m=1) with low-difference 1"),
    (lambda: SearchBudget(max_length=0),
     "budget fields must be positive (seed non-negative)"),
    (lambda: SearchBudget(seed=-1), "budget fields must be positive (seed non-negative)"),
    (lambda: OracleBudget(-1), "oracle budget caps must be non-negative"),
    (lambda: perron_bracket(1, 1), "need at least 2 colors"),
    (lambda: weighted_conjugate_sum(1, 2, -1), "diameter must be non-negative"),
    (lambda: transfer_matrix(2, 64), "matrix dimension 65 exceeds 64"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
