"""Exact Ramsey thresholds at small parameters, plus randomized witnesses.

The exact route is one iterative depth-first search over partial colorings,
left to right, whose depth record is the threshold.  It starts at k - 1
points, where no progression fits, and always seeks a valid coloring one
point longer than the longest found so far, so every N from k on is
entered by the same growth step.  Each point it colors costs one pass per
low-difference: the longest monochromatic chain ending there, read off
precomputed predecessors, and, when that chain has k - 1 terms, a forward
check that blocks the color one allowed gap ahead, so that a color is
rejected where it would end a monochromatic k-term chain.  When the search
is exhausted, every coloring of [1, N] contains a monochromatic progression
and N is the threshold.

The randomized route exhibits valid colorings at sizes where exhaustive
proof is pointless: random start, then local repair on detected
progressions.

Both routes emit re-verifiable artifacts: a ThresholdCertificate carries a
maximal witness coloring, and check_witness re-validates any coloring with
no reference to how it was produced.
"""

from __future__ import annotations

import json
import random
from typing import List, Optional, Tuple

from .errors import BudgetExceededError, WitnessFormatError
from .progressions import (
    Coloring,
    Family,
    fill_chains,
    find_monochromatic,
    record,
)


@record
class SearchBudget:
    """Caps and reproducibility knobs for the searches."""

    max_nodes: int = 2_000_000
    max_length: int = 64
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if min(self.max_nodes, self.max_length, self.restarts) < 1 or self.seed < 0:
            raise ValueError("budget fields must be positive (seed non-negative)")


@record
class ThresholdCertificate:
    """A Ramsey threshold claim with its evidence.

    With exhaustive=True, ``value`` is exact: the witness shows some
    coloring of [1, value-1] avoids monochromatic k-term progressions, and
    the search proved no coloring of [1, value] does.  With
    exhaustive=False (budget ran out), ``value`` is only a lower bound,
    still backed by the witness.
    """

    family: Family
    r: int
    k: int
    value: int
    witness: Coloring
    nodes_explored: int
    exhaustive: bool


def _block(
    i: int, bit: int, gaps: tuple, blocked: List[int], full: int, undo: List[int]
) -> bool:
    """Block ``bit`` at every point one allowed gap after 0-based point i,
    appending each point whose mask changes to ``undo``.  True, leaving the
    rest unblocked, once a mask reaches ``full``."""
    n = len(blocked)
    for g in gaps:
        j = i + g
        if j >= n:
            break
        mask = blocked[j]
        if not mask & bit:
            blocked[j] = mask = mask | bit
            undo.append(j)
            if mask == full:
                return True
    return False


def exact_threshold(
    r: int, k: int, family: Family, budget: SearchBudget = SearchBudget()
) -> ThresholdCertificate:
    """The least N such that every r-coloring of [1, N] contains a
    monochromatic k-term progression of the family.

    Below k no progression fits, so the search starts at N = k - 1 with no
    chain column, and every N from k on is entered by growth.  Each time it
    first completes a valid coloring of [1, N], that coloring is the
    witness and N grows by one; once it is exhausted, N is the value.  On
    budget exhaustion raises BudgetExceededError whose ``partial`` field
    carries the best lower-bound certificate (exhaustive=False).

    Colors are tried in ascending order and a color may exceed the largest
    used so far by at most one, so exactly one representative per
    color-permutation class is visited; a class contains a valid coloring
    iff its representative is valid.  colors[i] is the last color tried at
    0-based point i (-1 before the first), top[i] the largest color before
    it.

    Each low-difference d has a column: the tuple of every point's
    predecessors one allowed gap back (precomputed, so the loop does no
    bounds test), and a chain-length table whose row i is the longest chain
    of i's color ending at i.  Coloring point i with c makes one pass per
    column.  It fills row i from the rows of i's predecessors of color c
    and, when the chain has k - 1 terms, runs the forward check: every
    later point one allowed gap away is blocked for c.  blocked[j] is a
    bitmask of the colors blocked at point j, and blocks[i] lists the
    points whose mask level i set, so that trying another color at i undoes
    them.  This is the one completion test: c ends a k-term chain at i
    exactly when c is blocked there, and a point with every color blocked
    cannot be colored, so the prefix is rejected and the pass stops there.

    A rejected node may so leave row i partly filled.  That is safe: a row
    depends only on earlier rows, and no node reads row i before a node at
    i is accepted, which rewrites all of it; so backtracking keeps the rows
    of the current path valid.

    Growing N keeps the search order: every coloring of [1, N] before the
    witness is invalid, and so is each of its extensions.  Growth adds the
    new point's predecessors and row to every column, builds a new
    low-difference's column along the path (d = 1 on reaching N = k, its
    rows by progressions.fill_chains), and reruns each level's forward
    check with the node step's blocking routine, which logs only the new
    point's blocks; the search goes on at the new point.
    """
    if k < 2:
        raise ValueError("need at least 2 terms")
    if r < 2:
        raise ValueError("need at least 2 colors")
    nodes = 0
    witness = Coloring((0,) * (k - 1), r)

    def partial() -> ThresholdCertificate:
        return ThresholdCertificate(
            family, r, k, witness.n_points + 1, witness, nodes, False
        )

    # refused before the all-zero prefix of k - 1 points, so with 0 nodes
    if k > budget.max_length:
        raise BudgetExceededError(
            f"threshold exceeds max_length={budget.max_length}", partial=partial()
        )
    N = k - 1
    colors = [-1] * N
    # one column per low-difference d with (k - 1) * d <= N - 1: the
    # in-range predecessors of each point, chain lengths, allowed gaps
    columns: list = []
    top = [-1] * (N + 1)
    full = (1 << r) - 1
    blocked = [0] * N
    blocks: List[List[int]] = [[] for _ in range(N)]
    max_nodes = budget.max_nodes
    near_full = k - 2  # a predecessor chain this long puts k - 1 terms at i
    i = 0
    while i >= 0:
        if i == N:
            witness = Coloring(colors, r)
            N += 1
            if N > budget.max_length:
                raise BudgetExceededError(
                    f"threshold exceeds max_length={budget.max_length}",
                    partial=partial(),
                )
            colors.append(-1)
            blocked.append(0)
            top.append(-1)
            blocks.append([])
            for preds, lengths, gaps in columns:
                preds.append(tuple(i - g for g in gaps if g <= i))
                lengths.append(0)
            d = len(columns) + 1
            if (k - 1) * d <= N - 1:
                gaps = tuple(family.allowed_gaps(d)[: budget.max_length])
                preds = [tuple(j - g for g in gaps if g <= j) for j in range(N)]
                lengths = [0] * N
                fill_chains(colors, range(i), tuple(-g for g in gaps), lengths)
                columns.append((preds, lengths, gaps))
            for j in range(i):
                bit = 1 << colors[j]
                for _, lengths, gaps in columns:
                    if lengths[j] == k - 1:
                        _block(j, bit, gaps, blocked, full, blocks[j])
            continue
        undo = blocks[i]
        if undo:
            bit = 1 << colors[i]
            for j in undo:
                blocked[j] ^= bit
            undo.clear()
        c = colors[i] + 1
        if c > top[i] + 1 or c == r:
            colors[i] = -1
            i -= 1
            continue
        colors[i] = c
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceededError(
                f"node budget {max_nodes} exhausted", partial=partial()
            )
        if blocked[i] >> c & 1:
            continue
        # one pass per column: row i, then the forward check if the chain
        # has k - 1 terms; stopping early may leave row i partly filled
        for preds, lengths, gaps in columns:
            best = 0
            for j in preds[i]:
                if colors[j] == c:
                    x = lengths[j]
                    if x > best:
                        best = x
            lengths[i] = best + 1
            if best == near_full and _block(i, 1 << c, gaps, blocked, full, undo):
                break
        else:
            top[i + 1] = max(top[i], c)
            i += 1
    return ThresholdCertificate(family, r, k, N, witness, nodes, True)


def check_witness(chi: Coloring, k: int, family: Family) -> bool:
    """True iff chi contains no monochromatic k-term progression of the
    family; independent re-verification for certificates."""
    return find_monochromatic(chi, k, family) is None


def _mono_through_count(
    colors: List[int], p: int, c: int, k: int, family: Family
) -> int:
    """Number of k-term progressions through point p that would be
    monochromatic if p had color c (all other terms already colored c).

    Used by the repair step to score candidate colors when r > 2.  Splits
    each progression at p: for every low-difference and each side of p, a
    layered walk counts the chains of t steps from p, each step one allowed
    gap, that visit only points of color c, for t = 0..k-1; the two sides
    are combined over all splits.
    """
    n = len(colors)
    total = 0
    for d in range(1, (n - 1) // (k - 1) + 1):
        gaps = tuple(family.allowed_gaps(d)[:n])
        sides = []
        for offsets in (tuple(-g for g in gaps), gaps):
            layer = {p - 1: 1}
            counts = [1]
            for _ in range(k - 1):
                reached: dict = {}
                for q, ways in layer.items():
                    for s in offsets:
                        j = q + s
                        if not 0 <= j < n:
                            break
                        if colors[j] == c:
                            reached[j] = reached.get(j, 0) + ways
                layer = reached
                counts.append(sum(reached.values()))
            sides.append(counts)
        back, fwd = sides
        total += sum(b * f for b, f in zip(back, reversed(fwd)))
    return total


def random_witness_search(
    r: int, N: int, k: int, family: Family, budget: SearchBudget = SearchBudget()
) -> Optional[Coloring]:
    """Search for a coloring of [1, N] with no monochromatic k-term
    progression by random restarts plus local repair.

    Each attempt draws a uniform random coloring, then repeatedly recolors
    one uniformly chosen term of the first detected monochromatic
    progression; the new color is the one creating fewest monochromatic
    progressions through that point (ties to the smallest color; with two
    colors this is just a flip).  min(restarts, max_nodes) attempts make at
    most max(1, max_nodes // restarts) moves each, so max_nodes in all.
    Returns the first valid coloring, or None when the budget is spent:
    absence of a witness is a normal outcome, not an error.  Fixed seed
    makes the whole trajectory reproducible.
    """
    if k < 2:
        raise ValueError("need at least 2 terms")
    if r < 2:
        raise ValueError("need at least 2 colors")
    rng = random.Random(budget.seed)
    per_attempt = max(1, budget.max_nodes // budget.restarts)
    for _ in range(min(budget.restarts, budget.max_nodes)):
        colors = [rng.randrange(r) for _ in range(N)]
        for moves in range(per_attempt + 1):
            chi = Coloring(colors, r)
            bad = find_monochromatic(chi, k, family)
            if bad is None:
                return chi
            if moves == per_attempt:
                break
            p = bad.terms[rng.randrange(k)]
            old = colors[p - 1]
            if r == 2:
                colors[p - 1] = 1 - old
            else:  # min keeps the first, so the smallest, of tied colors
                colors[p - 1] = min(
                    (c for c in range(r) if c != old),
                    key=lambda c: _mono_through_count(colors, p, c, k, family),
                )
    return None


def write_witness(path: str, chi: Coloring, k: int, family: Family) -> None:
    """Write a two-line witness certificate: a JSON header, then the
    coloring as base-r digits (position i+1's color at index i).  Both lines
    are built before the file opens, so a coloring with too many colors for
    digits leaves no file."""
    header = {
        "family": family.kind,
        "param": family.param,
        "r": chi.r,
        "k": k,
        "n_points": chi.n_points,
    }
    text = json.dumps(header) + "\n" + chi.digits() + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_witness(path: str) -> Tuple[Coloring, int, Family]:
    """Parse a witness certificate file back into (coloring, k, family).

    Raises WitnessFormatError on any structural problem; the returned
    coloring still needs check_witness to be believed.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header_line = fh.readline()
            digit_line = fh.readline().strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise WitnessFormatError(f"cannot read witness file: {exc}") from exc
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise WitnessFormatError(f"bad witness header: {exc}") from exc
    if not isinstance(header, dict):
        raise WitnessFormatError("witness header must be a JSON object")
    fields = ("param", "r", "k", "n_points")
    missing = {"family", *fields} - header.keys()
    if missing:
        raise WitnessFormatError(f"witness header missing {sorted(missing)}")
    # type(), not isinstance: JSON true and false load as bools, a kind of int
    wrong = [f for f in fields if type(header[f]) is not int]
    if wrong:
        raise WitnessFormatError(f"witness header fields {wrong} must be JSON integers")
    param, r, k, n_points = (header[f] for f in fields)
    try:
        family = Family(header["family"], param)
        chi = Coloring.from_digits(digit_line, r)
    except (ValueError, TypeError) as exc:
        raise WitnessFormatError(f"bad witness contents: {exc}") from exc
    if chi.n_points != n_points:
        raise WitnessFormatError(
            f"header says {n_points} points but found {chi.n_points} digits"
        )
    if k < 2:
        raise WitnessFormatError("witness k must be at least 2")
    return chi, k, family
