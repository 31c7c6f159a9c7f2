"""Core types and pure operations for generalized progressions.

A k-term *semi-progression of scope m* is an increasing integer sequence
whose successive gaps all lie in {d, 2d, ..., md} for one positive integer d
(the *low-difference*).  A k-term *quasi-progression of diameter n* has all
gaps in {d, d+1, ..., d+n}.  Scope 1 and diameter 0 both recover ordinary
arithmetic progressions.

Each progression has a *conjugate vector*, the tuple of its per-gap excesses
over the minimal gap (normalized by d for semi, shifted by d for quasi), a
*weight* w, and a set of w *forced elements*: ground-set points whose color
is pinned to the opposite color whenever the progression is the first-term /
low-difference primary one under a coloring.  The counting bounds sum these
weights in closed form, and the oracle's forced check tests both.

Everything here is a pure function of its inputs; there is no shared state.
"""

from __future__ import annotations

from typing import Optional, Sequence

SEMI = "semi"
QUASI = "quasi"
MAX_DIGIT_COLORS = 10  # Coloring.digits writes one decimal digit per point


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    It is built by position or keyword (a class-level value is the default,
    so fields with one come last), then checked by ``__post_init__`` if it
    has one.  It equals a record of the same class with equal fields, hashes
    as the tuple of them, shows as ``Cls(field=value, ...)`` and raises
    AttributeError on assignment or deletion.  ``cls._fields`` names the
    fields.  ``__init__``, ``__eq__`` and ``__hash__`` are compiled once per
    class, so they cost what hand-written ones would.
    """
    fields = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    own = "".join(f"self.{f}, " for f in fields)
    source = (
        f"def __init__(self, {', '.join(fields)}):\n"
        + "".join(f"    _setattr(self, {f!r}, {f})\n" for f in fields)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({own}) == ({own.replace('self.', 'other.')})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({own}))\n"
    )
    methods = dict(__repr__=_record_repr, __setattr__=_record_setattr,
                   __delattr__=_record_delattr, _fields=fields)
    exec(source, {"_setattr": object.__setattr__}, methods)
    methods["__init__"].__defaults__ = defaults
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls


def _record_repr(self) -> str:
    values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({values})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


@record
class Family:
    """A progression family: semi of a given scope, or quasi of a given diameter."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in (SEMI, QUASI):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == SEMI and self.param < 1:
            raise ValueError("semi-progression scope must be at least 1")
        if self.kind == QUASI and self.param < 0:
            raise ValueError("quasi-progression diameter must be at least 0")

    @classmethod
    def semi(cls, scope: int) -> "Family":
        return cls(SEMI, scope)

    @classmethod
    def quasi(cls, diameter: int) -> "Family":
        return cls(QUASI, diameter)

    def allowed_gaps(self, d: int) -> range:
        """Successive gaps permitted for low-difference d, smallest first.  The
        i-th (from 0) is at least i + 1, so the first n hold all that fit in [1, n]."""
        if d < 1:
            raise ValueError("low-difference must be a positive integer")
        if self.kind == SEMI:
            return range(d, self.param * d + 1, d)
        return range(d, d + self.param + 1)

    def __str__(self) -> str:
        tag = "m" if self.kind == SEMI else "n"
        return f"{self.kind}({tag}={self.param})"


@record
class Coloring:
    """An r-coloring of the integer interval [1, N].

    Point i (1-based) has color ``colors[i-1]``; colors are integers in
    [0, r-1].
    """

    colors: tuple
    r: int = 2

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.r < 2:
            raise ValueError("a coloring needs at least 2 colors")
        if not self.colors:
            raise ValueError("a coloring must cover at least one point")
        if any(not (0 <= c < self.r) for c in self.colors):
            raise ValueError(f"colors must be integers in [0, {self.r - 1}]")

    @property
    def n_points(self) -> int:
        return len(self.colors)

    def digits(self) -> str:
        """The coloring as a base-r digit string (r <= MAX_DIGIT_COLORS)."""
        if self.r > MAX_DIGIT_COLORS:
            raise ValueError(f"digits support at most {MAX_DIGIT_COLORS} colors")
        return "".join(str(c) for c in self.colors)

    @classmethod
    def from_digits(cls, text: str, r: int) -> "Coloring":
        if not text.isdigit():
            raise ValueError("coloring digits must be decimal digits")
        return cls(tuple(int(ch) for ch in text), r)


@record
class Progression:
    """A k-term progression with its low-difference and family.

    Construction refuses malformed input (fewer than two terms, d < 1,
    non-positive or non-increasing terms), then terms whose gaps fall
    outside the family's gap set for d.
    """

    terms: tuple
    low_difference: int
    family: Family

    def __post_init__(self):
        terms, d = tuple(self.terms), self.low_difference
        object.__setattr__(self, "terms", terms)
        if len(terms) < 2:
            raise ValueError("a progression needs at least two terms")
        if d < 1:
            raise ValueError("low-difference must be a positive integer")
        if terms[0] < 1:
            raise ValueError("terms must be positive integers")
        if any(b <= a for a, b in zip(terms, terms[1:])):
            raise ValueError("terms must be strictly increasing")
        gaps = self.family.allowed_gaps(d)
        if not all(b - a in gaps for a, b in zip(terms, terms[1:])):
            raise ValueError(
                f"gaps of {terms} not allowed for {self.family} "
                f"with low-difference {d}"
            )


def conjugate_vector(p: Progression) -> tuple:
    """The conjugate vector of p: (gap - d)/d per gap for semi, gap - d for quasi."""
    d = p.low_difference
    unit = d if p.family.kind == SEMI else 1
    return tuple((b - a - d) // unit for a, b in zip(p.terms, p.terms[1:]))


def weight(p: Progression) -> int:
    """Number of ground-set elements whose color is forced opposite when p
    is primary.

    With u = conjugate_vector(p), semi: the sum of u.  Quasi: u[-1] plus
    min(x, n - y) per adjacent pair (x, y), the exchanges of their shared term.
    """
    u = conjugate_vector(p)
    if p.family.kind == SEMI:
        return sum(u)
    n = p.family.param
    return u[-1] + sum(min(x, n - y) for x, y in zip(u, u[1:]))


def forced_elements(p: Progression) -> set:
    """The points strictly inside p's span whose color must differ from p's
    color whenever p is the primary progression for its first term and
    low-difference.

    Each such point e admits an exchange: a valid progression with the same
    first term and low-difference that uses e and has a lexicographically
    smaller conjugate vector, so e colored like p would contradict primality.
    The set has exactly weight(p) elements.
    """
    d = p.low_difference
    u = conjugate_vector(p)
    out = set()
    if p.family.kind == SEMI:
        # inside gap i, every multiple of d strictly below the next term
        for a_i, u_i in zip(p.terms, u):
            for j in range(u_i):
                out.add(a_i + (j + 1) * d)
        return out
    n = p.family.param
    for i in range(len(u) - 1):
        # interior gap: only offsets whose exchange keeps the following gap
        # within diameter, which is exactly min(u_i, n - u_{i+1}) of them
        lo = max(0, u[i] - (n - u[i + 1]))
        for j in range(lo, u[i]):
            out.add(p.terms[i] + d + j)
    for j in range(u[-1]):
        out.add(p.terms[-2] + d + j)
    return out


def chain_starts(points: int, gaps: Sequence[int], k: int) -> list:
    """The chain kernel: with ``points`` one color class (bit i for 0-based
    point i), entry j - 1 is T_j, where T_1 = points and T_(j+1) = points &
    OR_g (T_j >> g) over the ``gaps``; bit i of T_j is set where a chain of
    j terms of the class starts.  After an empty T_j the rest are 0, unshifted.
    """
    sets = [points]
    while len(sets) < k and sets[-1]:
        reach = 0
        for g in gaps:
            reach |= sets[-1] >> g
        sets.append(points & reach)
    return sets + [0] * (k - len(sets))


def primary_walk(
    colors: Sequence[int], a: int, k: int, gaps: Sequence[int], last: int
) -> Optional[tuple]:
    """The terms of primary_progression on a plain color sequence, or None,
    unchecked: a in [1, len(colors)], k >= 2, ``gaps`` the allowed gaps that
    fit (``family.allowed_gaps(d)[:len(colors)]``) and ``last`` the window's
    end, min(len(colors), a + (k-1) * gaps[-1]), past which no chain from a
    reaches.  A caller that walks many colorings for one (a, d) works the
    gaps and window out once.

    Plain greedy on the coloring is wrong (the smallest feasible entry can
    dead-end before k terms), so the sets T_j of a's color over the window
    (bit i for point a + i) come first.  Each step then takes the smallest
    gap to a point whose chain still has the terms left to place; one exists
    whenever the current point's chain is long enough, so the walk never
    backtracks and gives the minimum.
    """
    c, points = colors[a - 1], 0  # a's class over the window, bit i for a + i
    for x in reversed(colors[a - 1:last]):
        points = points << 1 | (x == c)
    sets = chain_starts(points, gaps, k)
    if not sets[-1] & 1:
        return None
    i, terms = 0, [a]
    for need in range(k - 2, -1, -1):
        # bit i of T_(need+2) is set, so some gap reaches a chain of need + 1
        # terms (only points of a's color have one) inside the window
        for g in gaps:
            if sets[need] >> (i + g) & 1:
                break
        i += g
        terms.append(a + i)
    return tuple(terms)


def primary_progression(
    chi: Coloring, a: int, d: int, k: int, family: Family
) -> Optional[Progression]:
    """The monochromatic k-term progression with first term a and
    low-difference d whose conjugate vector is lexicographically least, or
    None if no such monochromatic progression fits inside [1, N].  The
    arguments are checked, then ``primary_walk`` finds the terms.
    """
    if k < 2:
        raise ValueError("progressions need at least two terms")
    if d < 1:
        raise ValueError("low-difference must be a positive integer")
    n = chi.n_points
    if not 1 <= a <= n:
        raise ValueError(f"first term {a} outside [1, {n}]")
    gaps = tuple(family.allowed_gaps(d)[:n])
    terms = primary_walk(chi.colors, a, k, gaps, min(n, a + (k - 1) * gaps[-1]))
    return None if terms is None else Progression(terms, d, family)


def find_monochromatic(chi: Coloring, k: int, family: Family) -> Optional[Progression]:
    """Some monochromatic k-term progression of the family inside [1, N], or None.

    Deterministic: the result is the smallest (a, d, conjugate vector)
    triple.  Each color class is one int, built once.  For each d up to
    (N - 1) // (k - 1), since even the tightest progression spans (k-1)d,
    the least set bit of the classes' T_k is the least first term whose
    chain reaches k.  Later passes only look at earlier first terms, so
    each class is cut to the window where those chains end.
    """
    if k < 2:
        raise ValueError("progressions need at least two terms")
    n = chi.n_points
    # one string join per class: shifting in a bit per point, as primary_walk
    # does on its short window, would take time quadratic in N
    classes = [int("".join("01"[x == c] for x in reversed(chi.colors)), 2)
               for c in set(chi.colors)]
    best_d, firsts = 0, n  # 0-based first terms below firsts can still win
    for d in range(1, (n - 1) // (k - 1) + 1):
        if not firsts:
            break
        gaps = tuple(family.allowed_gaps(d)[:n])
        window = (1 << firsts + (k - 1) * gaps[-1]) - 1
        starts = 0
        for points in classes:
            starts |= chain_starts(points & window, gaps, k)[-1]
        starts &= (1 << firsts) - 1
        if starts:
            best_d, firsts = d, (starts & -starts).bit_length() - 1
    return primary_progression(chi, firsts + 1, best_d, k, family) if best_d else None
