"""Valuations, boxes, minimal antichains and the search for them.

A valuation assigns a natural number to every parameter variable of a
formula.  The satisfying valuations of a monotone query form an upward
closed set, so it is fully described by its finitely many minimal
elements.  `bisection_min_set` computes that antichain inside a search
box by joint generation of minimal true and maximal false points; its
name is kept from the bisection search it replaced.
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

        A point below `point` is also no larger lexicographically, so the
        scan stops at the first point that is.
        """
        point = tuple(point)
        for q in self.points[:bisect.bisect_right(self.points, point)]:
            if all(a <= b for a, b in zip(q, point)):
                return True
        return False

    def valuations(self):
        return [Valuation(dict(zip(self.names, p))) for p in self.points]

    def __str__(self):
        return "\n".join(str(v) for v in self.valuations())

    def __repr__(self):
        return "MinimalSet(%r, %r)" % (self.names, self.points)




def _leq(p, q):
    return all(a <= b for a, b in zip(p, q))


def bisection_min_set(oracle, lo, hi, names):
    """Minimal elements of a monotone upward-closed set within [lo, hi].

    `oracle(point)` must be monotone: once true it stays true on every
    pointwise larger argument.  The result is a MinimalSet over `names`.

    Joint generation of minimal true and maximal false points (Fredman
    and Khachiyan, 1996; Gunopulos, Khardon, Mannila and Toivonen, 1997).
    The holes are the maximal points of the box above no found point.
    Starting from `hi`, the unanswered hole with the smallest coordinate
    sum is asked first, since larger bounds cost the oracle more.  A
    false hole is a maximal false point.  A true hole is lowered one
    coordinate at a time, by a galloping search up from `lo` and then a
    binary search, to a new minimal point, and every hole above that
    point is split just below it.  The search ends when every hole is
    false.  No point is asked twice, nor one below a known false point.

    Its one caller is `DiamondChecker.min_set`, which serves Diamond
    formulas, FX at threshold "=1" and GeneralizedBuchi at ">0".
    """
    lo = tuple(lo)
    hi = tuple(hi)
    if len(lo) != len(hi) or len(lo) != len(names):
        raise ValuationError("box dimensions disagree")
    found = MinimalSet(names)
    if any(l > h for l, h in zip(lo, hi)):
        return found
    memo = {}

    def ask(point):
        if point not in memo:
            memo[point] = (not any(not v and _leq(point, q)
                                   for q, v in memo.items())
                           and bool(oracle(point)))
        return memo[point]

    holes = [hi]
    while True:
        # A hole in the memo is false: true answers all lie above found points.
        open_holes = [h for h in holes if h not in memo]
        if not open_holes:
            return found
        hole = min(open_holes, key=lambda h: (sum(h), h))
        if not ask(hole):
            continue
        point = list(hole)
        # Least true value per coordinate: steps of 1, 2, 4, ... up from
        # lo until a true answer, then halving between false and true.
        for i in range(len(point)):
            no, yes, step = lo[i] - 1, point[i], 1
            while yes - no > 1:
                point[i] = no + step if 0 < step < yes - no else (no + yes) // 2
                if ask(tuple(point)):
                    yes, step = point[i], 0
                else:
                    no, step = point[i], 2 * step
            point[i] = yes
        low = tuple(point)
        found.insert(low)
        cut = {h[:i] + (c - 1,) + h[i + 1:]
               for h in holes if _leq(low, h)
               for i, c in enumerate(low) if c > lo[i]}
        holes = [h for h in holes if not _leq(low, h)] + list(cut)
        holes = [h for h in holes
                 if not any(h != g and _leq(h, g) for g in holes)]
