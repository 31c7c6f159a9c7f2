"""Definition-level checks on colorings, written apart from the package.

Nothing here imports ``ramseyprog``.  A k-term progression of a family with
low-difference d is an increasing sequence whose successive gaps all lie in
the family's gap set for d: {d, 2d, ..., m*d} for a semi-progression of scope
m, {d, d+1, ..., d+n} for a quasi-progression of diameter n.  Two checks are
kept side by side:

* ``has_mono_enum`` tries every first term, low-difference and gap tuple,
  exactly as the definition reads; it is only run where r^N colorings or
  gap tuples are few.
* ``has_mono`` finds, for each d, the longest monochromatic chain ending at
  each point (one more than the longest same-colored chain ending one
  allowed gap earlier).  A k-term progression exists iff some chain reaches
  k terms.  It is iterative, so it handles 1,500-point colorings with
  k = 1200.
"""

from itertools import product


def gap_set(kind, param, d):
    if kind == "semi":
        return [j * d for j in range(1, param + 1)]
    if kind == "quasi":
        return [d + e for e in range(param + 1)]
    raise ValueError(f"unknown family {kind!r}")


def has_mono(colors, k, kind, param):
    """True iff ``colors`` (color of point i+1 at index i) holds a
    monochromatic k-term progression of the family."""
    n_points = len(colors)
    if k < 2:
        raise ValueError("progressions need at least two terms")
    for d in range(1, (n_points - 1) // (k - 1) + 1):
        gaps = gap_set(kind, param, d)
        longest = [1] * n_points
        for p in range(n_points):
            c = colors[p]
            best = 1
            for g in gaps:
                q = p - g
                if q < 0:
                    break
                if colors[q] == c and longest[q] >= best:
                    best = longest[q] + 1
            if best >= k:
                return True
            longest[p] = best
    return False


def has_mono_enum(colors, k, kind, param):
    """``has_mono`` by brute enumeration of (a, d, gap tuple)."""
    n_points = len(colors)
    for a in range(1, n_points + 1):
        for d in range(1, n_points):
            if a + (k - 1) * d > n_points:  # every gap is at least d
                break
            for gaps in product(gap_set(kind, param, d), repeat=k - 1):
                terms = [a]
                for g in gaps:
                    terms.append(terms[-1] + g)
                if terms[-1] > n_points:
                    continue
                if all(colors[t - 1] == colors[a - 1] for t in terms):
                    return True
    return False


def mono_count(r, n_points, k, kind, param):
    """Number of r-colorings of [1, N] with a monochromatic k-term
    progression, by sweeping every coloring through ``has_mono_enum``."""
    return sum(
        1
        for colors in product(range(r), repeat=n_points)
        if has_mono_enum(colors, k, kind, param)
    )


def is_maximal_witness(colors, r, k, kind, param):
    """True iff ``colors`` avoids monochromatic k-term progressions and every
    one-point extension to the right (point N+1 in any of the r colors)
    contains one."""
    colors = list(colors)
    if has_mono(colors, k, kind, param):
        return False
    return all(has_mono(colors + [c], k, kind, param) for c in range(r))
