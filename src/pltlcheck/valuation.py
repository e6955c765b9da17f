"""Valuations, boxes, minimal antichains and the bisection search.

A valuation assigns a natural number to every parameter variable of a
formula.  The satisfying valuations of a monotone query form an upward
closed set, so it is fully described by its finitely many minimal
elements.  `bisection_min_set` computes that antichain with a memoized
oracle and a divide-and-conquer sweep over the search box.
"""

from __future__ import annotations

import bisect


class ValuationError(ValueError):
    pass


class Valuation:
    """An assignment of naturals to a fixed set of variable names."""

    def __init__(self, assignment):
        items = sorted(assignment.items())
        for name, value in items:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValuationError("value of %r must be a natural number" % name)
        self.names = tuple(name for name, _ in items)
        self.assignment = dict(items)

    def __getitem__(self, name):
        return self.assignment[name]

    def __contains__(self, name):
        return name in self.assignment

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.assignment == other.assignment

    def __hash__(self):
        return hash(tuple(self.assignment.items()))

    def key(self):
        """Tuple of values in sorted name order, usable for lex comparisons."""
        return tuple(self.assignment[n] for n in self.names)

    def leq(self, other):
        """Pointwise order; both valuations must share the same names."""
        if self.names != other.names:
            raise ValuationError("valuations range over different variables")
        return all(self.assignment[n] <= other.assignment[n] for n in self.names)

    def __str__(self):
        return ",".join("%s=%d" % (n, self.assignment[n]) for n in self.names)

    def __repr__(self):
        return "Valuation(%r)" % (self.assignment,)


def parse_valuation(text):
    """Parse "x=3,y=5" into a Valuation."""
    assignment = {}
    stripped = text.strip()
    if not stripped:
        return Valuation({})
    for part in stripped.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value:
            raise ValuationError("bad valuation entry %r" % part)
        if not (value.isascii() and value.isdigit()):
            raise ValuationError("value of %r must be a natural number" % name)
        if name in assignment:
            raise ValuationError("variable %r assigned twice" % name)
        try:
            assignment[name] = int(value)
        except ValueError:  # more digits than int() converts
            raise ValuationError("value of %r is too large" % name)
    return Valuation(assignment)


def iter_box(lo, hi):
    """Yield all integer points of the box [lo, hi] in lexicographic order."""
    if any(l > h for l, h in zip(lo, hi)):
        return
    point = list(lo)
    d = len(lo)
    while True:
        yield tuple(point)
        i = d - 1
        while i >= 0 and point[i] == hi[i]:
            point[i] = lo[i]
            i -= 1
        if i < 0:
            return
        point[i] += 1


def box_volume(lo, hi):
    vol = 1
    for l, h in zip(lo, hi):
        if l > h:
            return 0
        vol *= h - l + 1
    return vol


class MinimalSet:
    """Antichain of pointwise-minimal tuples, kept in lexicographic order.

    Inserting a dominated point is a no-op; inserting a dominating point
    evicts everything it improves on.
    """

    def __init__(self, names, points=()):
        self.names = tuple(names)
        self.points = []
        for p in points:
            self.insert(tuple(p))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (isinstance(other, MinimalSet)
                and self.names == other.names
                and self.points == other.points)

    def insert(self, point):
        """Add `point` unless dominated; drop points it dominates.

        Returns True when the antichain changed.
        """
        point = tuple(point)
        if len(point) != len(self.names):
            raise ValuationError("point has wrong dimension")
        keep = []
        for q in self.points:
            if all(a <= b for a, b in zip(q, point)):
                return False
            if not all(a <= b for a, b in zip(point, q)):
                keep.append(q)
        self.points = keep
        bisect.insort(self.points, point)
        return True

    def member(self, point):
        """Is `point` in the upward closure of the antichain?

        Points whose first coordinate exceeds point[0] are lexicographically
        above (point[0] + 1, 0, ..., 0), so the scan stops there.
        """
        point = tuple(point)
        cutoff = bisect.bisect_left(
            self.points, (point[0] + 1,) + (0,) * (len(point) - 1))
        for q in self.points[:cutoff]:
            if all(a <= b for a, b in zip(q, point)):
                return True
        return False

    def valuations(self):
        return [Valuation(dict(zip(self.names, p))) for p in self.points]

    def __str__(self):
        return "\n".join(str(v) for v in self.valuations())

    def __repr__(self):
        return "MinimalSet(%r, %r)" % (self.names, self.points)


class _MaxFalseSet:
    """Antichain of maximal known-false points of a monotone predicate.

    Monotonicity makes every point below a false point false too, so
    this is the mirror image of MinimalSet; it is kept by negating the
    coordinates and reusing the minimal-antichain logic.
    """

    def __init__(self, dim):
        self.inner = MinimalSet(("",) * dim)

    def insert(self, point):
        self.inner.insert(tuple(-c for c in point))

    def covered(self, point):
        return self.inner.member(tuple(-c for c in point))


class _MemoOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.cache = {}
        self.calls = 0

    def __call__(self, point):
        if point not in self.cache:
            self.calls += 1
            self.cache[point] = bool(self.oracle(point))
        return self.cache[point]


_BRUTE_FORCE_VOLUME = 64


def bisection_min_set(oracle, lo, hi, names):
    """Minimal elements of a monotone upward-closed set within [lo, hi].

    `oracle(point)` must be monotone: once true it stays true on every
    pointwise larger argument.  The result is a MinimalSet over `names`;
    oracle calls are memoized across the whole search.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    if len(lo) != len(hi) or len(lo) != len(names):
        raise ValuationError("box dimensions disagree")
    memo = _MemoOracle(oracle)
    found = MinimalSet(names)
    refuted = _MaxFalseSet(len(lo))
    _bisect_box(memo, lo, hi, found, refuted)
    return found


def _bisect_box(oracle, lo, hi, found, refuted):
    if any(l > h for l, h in zip(lo, hi)):
        return
    # Everything in this box is dominated by a known minimal point.
    if found.member(lo):
        return
    # Everything in this box lies below a known false point.
    if refuted.covered(hi):
        return
    if box_volume(lo, hi) <= _BRUTE_FORCE_VOLUME:
        for point in iter_box(lo, hi):
            if found.member(point) or refuted.covered(point):
                continue
            if oracle(point):
                found.insert(point)
            else:
                refuted.insert(point)
        return
    mid = tuple((l + h) // 2 for l, h in zip(lo, hi))
    mid_true = oracle(mid)
    if mid_true:
        found.insert(mid)
    else:
        refuted.insert(mid)
    d = len(lo)
    # Sub-boxes are indexed by which coordinates take the upper half.
    for mask in range(2 ** d):
        if mid_true and mask == 2 ** d - 1:
            continue  # dominated by mid
        if not mid_true and mask == 0:
            continue  # below mid, all false by monotonicity
        sub_lo = tuple(mid[i] + 1 if mask >> i & 1 else lo[i] for i in range(d))
        sub_hi = tuple(hi[i] if mask >> i & 1 else mid[i] for i in range(d))
        _bisect_box(oracle, sub_lo, sub_hi, found, refuted)
