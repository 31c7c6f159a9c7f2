"""Core types and pure operations for generalized progressions.

A k-term *semi-progression of scope m* is an increasing integer sequence
whose successive gaps all lie in {d, 2d, ..., md} for one positive integer d
(the *low-difference*).  A k-term *quasi-progression of diameter n* has all
gaps in {d, d+1, ..., d+n}.  Scope 1 and diameter 0 both recover ordinary
arithmetic progressions.

Each progression has a *conjugate vector* recording the per-gap excess over
the minimal gap (normalized by d for semi, shifted by d for quasi), a
*weight*, and a set of *forced elements*: ground-set points whose color is
pinned to the opposite color whenever the progression is the first-term /
low-difference primary one under a coloring.  These are the combinatorial
levers used by the counting bounds and the exhaustive oracles.

Everything here is a pure function of its inputs; there is no shared state.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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

    @property
    def max_excess(self) -> int:
        """Largest conjugate-vector entry: scope-1 for semi, diameter for quasi."""
        return self.param - 1 if self.kind == SEMI else self.param

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

    def color_of(self, point: int) -> int:
        if not 1 <= point <= len(self.colors):
            raise ValueError(f"point {point} outside [1, {len(self.colors)}]")
        return self.colors[point - 1]

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


def validate_progression(terms: Sequence[int], d: int, family: Family) -> bool:
    """True iff every successive gap of ``terms`` is allowed for low-difference d.

    Raises ValueError for malformed input (fewer than two terms, non-positive
    or non-increasing terms, d < 1); returns False only for well-formed terms
    whose gaps fall outside the family's gap set.
    """
    terms = tuple(terms)
    if len(terms) < 2:
        raise ValueError("a progression needs at least two terms")
    if d < 1:
        raise ValueError("low-difference must be a positive integer")
    if terms[0] < 1:
        raise ValueError("terms must be positive integers")
    if any(b <= a for a, b in zip(terms, terms[1:])):
        raise ValueError("terms must be strictly increasing")
    gaps = family.allowed_gaps(d)
    return all(b - a in gaps for a, b in zip(terms, terms[1:]))


@record
class Progression:
    """A k-term progression with its low-difference and family.

    Validity (all gaps in the family's gap set) is enforced on construction.
    """

    terms: tuple
    low_difference: int
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not validate_progression(self.terms, self.low_difference, self.family):
            raise ValueError(
                f"gaps of {self.terms} not allowed for {self.family} "
                f"with low-difference {self.low_difference}"
            )

    @property
    def k(self) -> int:
        return len(self.terms)


@record
class ConjugateVector:
    """Per-gap excess over the minimal gap; entries in [0, max_excess]."""

    entries: tuple
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("conjugate vector must have at least one entry")
        top = self.family.max_excess
        if any(not (0 <= u <= top) for u in self.entries):
            raise ValueError(f"entries must lie in [0, {top}] for {self.family}")


def conjugate_vector(p: Progression) -> ConjugateVector:
    """The conjugate vector of p: (gap - d)/d per gap for semi, gap - d for quasi."""
    d = p.low_difference
    gaps = [b - a for a, b in zip(p.terms, p.terms[1:])]
    if p.family.kind == SEMI:
        entries = tuple((g - d) // d for g in gaps)
    else:
        entries = tuple(g - d for g in gaps)
    return ConjugateVector(entries, p.family)


def pair_multiplicity(x: int, y: int, n: int) -> int:
    """min(x, n - y): the number of quasi-progressions obtained from a gap pair
    with excesses (x, y) by moving the shared endpoint down, each yielding a
    lexicographically smaller conjugate vector."""
    if not (0 <= x <= n and 0 <= y <= n):
        raise ValueError(f"excesses must lie in [0, {n}]")
    return min(x, n - y)


def weight(u: ConjugateVector) -> int:
    """Number of ground-set elements whose color is forced opposite when a
    progression with conjugate vector u is primary.

    Semi: the sum of the entries.  Quasi: the last entry plus the pair
    multiplicities min(u_i, n - u_{i+1}) of all adjacent entry pairs.
    """
    if u.family.kind == SEMI:
        return sum(u.entries)
    n = u.family.param
    total = u.entries[-1]
    for x, y in zip(u.entries, u.entries[1:]):
        total += pair_multiplicity(x, y, n)
    return total


def forced_elements(p: Progression) -> set:
    """The points strictly inside p's span whose color must differ from p's
    color whenever p is the primary progression for its first term and
    low-difference.

    Each such point e admits an exchange: a valid progression with the same
    first term and low-difference that uses e and has a lexicographically
    smaller conjugate vector, so e colored like p would contradict primality.
    The set has exactly weight(conjugate_vector(p)) elements.
    """
    d = p.low_difference
    u = conjugate_vector(p).entries
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


def fill_chains(
    colors: Sequence[int], points: Iterable[int], offsets: Sequence[int], lengths: list
) -> None:
    """The chain-length kernel.  For each 0-based point i of ``points``, in
    order, set lengths[i] to 1 + max lengths[i+s] over the ``offsets`` s
    that land inside ``colors`` on i's color.  Backward offsets over
    ascending points give the longest monochromatic chain ending at each
    point; forward offsets over descending points, the longest one starting
    there.
    """
    n = len(colors)
    for i in points:
        c = colors[i]
        best = 0
        for s in offsets:
            j = i + s
            if not 0 <= j < n:
                break
            if colors[j] == c and lengths[j] > best:
                best = lengths[j]
        lengths[i] = best + 1


def primary_progression(
    chi: Coloring, a: int, d: int, k: int, family: Family
) -> Optional[Progression]:
    """The monochromatic k-term progression with first term a and
    low-difference d whose conjugate vector is lexicographically least, or
    None if no such monochromatic progression fits inside [1, N].

    Plain greedy on the coloring is wrong (the smallest feasible entry can
    dead-end before k terms), so the forward chain lengths for d come first.
    Each step then takes the smallest gap to a point whose chain still has
    the terms left to place; one exists whenever the current point's chain
    is long enough, so the walk never backtracks and gives the minimum.
    """
    if k < 2:
        raise ValueError("progressions need at least two terms")
    if d < 1:
        raise ValueError("low-difference must be a positive integer")
    colors = chi.colors
    n = len(colors)
    if not 1 <= a <= n:
        raise ValueError(f"first term {a} outside [1, {n}]")
    c = colors[a - 1]
    gaps = tuple(family.allowed_gaps(d)[:n])
    starting = [0] * n
    # only a's color matters, and no chain from a passes a + (k-1) * max gap
    last = min(n, a + (k - 1) * gaps[-1])
    points = [i for i in range(last - 1, a - 2, -1) if colors[i] == c]
    fill_chains(colors, points, gaps, starting)
    if starting[a - 1] < k:
        return None
    i, terms = a - 1, [a]
    for need in range(k - 1, 0, -1):
        # starting[i] > need, so some gap reaches a chain of need terms (only
        # points of a's color have one) before the gaps leave [1, N]
        for g in gaps:
            if starting[i + g] >= need:
                break
        i += g
        terms.append(i + 1)
    return Progression(terms, d, family)


def find_monochromatic(chi: Coloring, k: int, family: Family) -> Optional[Progression]:
    """Some monochromatic k-term progression of the family inside [1, N], or None.

    Deterministic: the result is the smallest (a, d, conjugate vector)
    triple.  For each d up to (N - 1) // (k - 1), since even the tightest
    progression spans (k-1)d, a right-to-left pass fills the forward chain
    lengths and keeps the least first term whose chain reaches k.  Later
    passes only look at earlier first terms, so they stop where those
    chains end, and one column is held at a time.
    """
    if k < 2:
        raise ValueError("progressions need at least two terms")
    n = chi.n_points
    best_d, firsts = 0, n  # 0-based first terms below firsts can still win
    for d in range(1, (n - 1) // (k - 1) + 1):
        if not firsts:
            break
        gaps = tuple(family.allowed_gaps(d)[:n])
        starting = [0] * n
        last = min(n, firsts + (k - 1) * gaps[-1])
        fill_chains(chi.colors, range(last - 1, -1, -1), gaps, starting)
        a = next((a for a in range(firsts) if starting[a] >= k), None)
        if a is not None:
            best_d, firsts = d, a
    return primary_progression(chi, firsts + 1, best_d, k, family) if best_d else None
