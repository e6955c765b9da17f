"""Pipeline for the next/eventually fragment (literals, and, or, X, F).

Its formulas are co-safe: a valuation v is in V>0 iff some finite chain
path satisfies phi[v].  One search answers emptiness of V>0, its
minimal valuations and membership of one valuation.  It runs over
(chain state, pending obligations) pairs, stepped by formula
progression (Bacchus and Kabanza, 2000); constant bounds count down
inside the obligations instead of being unfolded.

The minimal valuations of V>0 are the Pareto front of a multi-criteria
path search, found by label setting (Martins, 1984).  Each pending
F[<=x] psi carries its age, the number of steps since it had to hold;
discharging it at age a needs x >= a, and so does keeping it pending
until age a.  Per pair, only the Pareto-minimal (ages, needs) labels
are kept.  Going round a cycle only raises ages, so Dickson's lemma
makes the search finite.  Emptiness runs the search on the
parameter-free formula with no variables, where it is breadth-first:
the first path to finish is a shortest witness path, and
v(x) = m * |phi| (constant bounds unfolded) is a witness valuation.

Almost-sure queries use the general product checker, but not at one
bound.  Emptiness of V=1 (`check`) is `DiamondChecker.emptiness`: the
counter-free check, then the uniform point at N0, then a pump
certificate, then the point at vbar = m * |phi| * 2^|phi|.  The
minimal valuations of V=1 (`minset`) are `DiamondChecker.min_set` in
the box {0..m * |phi|}^k; `min_set_fx` serves V>0 only.  That this box
holds every minimal valuation of V=1 is a claim no proof yet supports;
random draws have not refuted it.  `emptiness_as1_fx` asks the point at
m * |phi|; nothing in this package calls it, and it stays only for the
benchmark's tracer (`perfbench/spans.py`), which wraps it by name.
"""

from __future__ import annotations

from collections import deque

from .formula import (
    And, Atom, BoundedEventually, ConstBound, Eventually, FragmentError,
    NegAtom, Next, Or, strip_params, to_nnf, unfolded_depth, unfolded_size,
    variables,
)
from .valuation import MinimalSet
from . import diamond

# A way is (obligations, ages, needs): the set of formulas left for the
# next position, the age there of each pending F[<=x] older than 0, and
# the least value each variable needs.  Ways are never changed in place.
_DONE = (frozenset(), {}, {})


def _max_merge(a, b):
    """The entries of both dicts, the larger value where both have one."""
    if not b:
        return a
    out = dict(a)
    for k, n in b.items():
        out[k] = max(out.get(k, 0), n)
    return out


def _join(v, w):
    """Both ways at once.  Two copies of one obligation merge into the
    older: its deadline is the earlier."""
    return v[0] | w[0], _max_merge(v[1], w[1]), _max_merge(v[2], w[2])


def _meet(f, letter, age=0):
    """The ways f can hold at a position labelled `letter`, `age` steps
    after it had to hold.  Only a pending F[<=x] is ever older than 0:
    every other obligation is due where it is met."""
    if isinstance(f, Atom):
        return [_DONE] if f.name in letter else []
    if isinstance(f, NegAtom):
        return [] if f.name in letter else [_DONE]
    if isinstance(f, Or):
        return _meet(f.left, letter) + _meet(f.right, letter)
    if isinstance(f, And):
        right = _meet(f.right, letter)
        return [_join(a, b) for a in _meet(f.left, letter) for b in right]
    if isinstance(f, Next):
        return [(frozenset([f.child]), {}, {})]
    if isinstance(f, Eventually):
        return _meet(f.child, letter) + [(frozenset([f]), {}, {})]
    if isinstance(f, BoundedEventually) and isinstance(f.bound, ConstBound):
        c = f.bound.value
        later = ([(frozenset([BoundedEventually(ConstBound(c - 1), f.child)]),
                   {}, {})] if c else [])
        return _meet(f.child, letter) + later
    if isinstance(f, BoundedEventually):
        # Waiting commits x to at least the next age, so discharging now
        # with nothing left is a way below waiting.
        x = f.bound.name
        now = [(left, ages, _max_merge(need, {x: age}))
               for left, ages, need in _meet(f.child, letter)]
        return now + [(frozenset([f]), {f: age + 1}, {x: age + 1})]
    raise FragmentError("formula is outside the next/eventually fragment")


def _below(v, w):
    """Does way v ask no more than way w: fewer obligations, none older,
    and no larger need?"""
    return (v[0] <= w[0]
            and all(age <= w[1].get(f, 0) for f, age in v[1].items())
            and all(n <= w[2].get(x, 0) for x, n in v[2].items()))


def _step(letter, pending):
    """The minimal ways to meet every (formula, age) of `pending` at a
    position labelled `letter`, fewest obligations first, in an order
    fixed by the order of `pending`."""
    ways = [_DONE]
    for f, age in pending:
        joined = [_join(w, m) for w in ways for m in _meet(f, letter, age)]
        ways = []
        for w in sorted(joined, key=lambda w: len(w[0])):
            if not any(_below(v, w) for v in ways):
                ways.append(w)
    return ways


def _pareto_front(chain, phi, names, bound, max_nodes):
    """Minimal valuations of V>0 within {0..bound}^d by label setting,
    and the chain path of the first label to finish (None if none does).

    The labels of a node form an antichain over its pending formulas
    (their ages) and then `names` (their needs; a pending F[<=x] of age
    a already needs x >= a).  A label that needs more than `bound`
    cannot reach a point of the box, and one whose needs are above a
    found point cannot reach a new minimal point: both are dropped.
    Labels are expanded first in, first out, each entry linked to the
    one it came from.  With no `names` (phi then has no variables, so
    no ages) a node holds at most one label: a plain set of the nodes
    offered replaces the antichains, the search is breadth-first, and
    it ends at the first label to finish, on a shortest path.  More
    than `max_nodes` labels raise diamond.ResourceLimitError.
    """
    found = MinimalSet(names)
    # (chain state, pending formulas) -> MinimalSet of labels; None
    # with no names, where the key alone marks the node as seen.
    labels = {}
    order = {}  # pending formulas -> them sorted by text
    queue = deque()
    count = 0
    path = None

    def offer(s, left, ages, need, back):
        nonlocal count
        if left not in order:
            # Sorted, so that the labels do not depend on hashing.
            order[left] = tuple(sorted(left, key=str))
        label = (tuple(ages.get(f, 0) for f in order[left])
                 if ages else (0,) * len(left)) + need
        if names:
            kept = labels.get((s, left))
            if kept is None:
                kept = labels[s, left] = MinimalSet(order[left] + found.names)
            if not kept.insert(label):
                return
        elif (s, left) in labels:
            return
        else:
            labels[s, left] = None
        count += 1
        if count > max_nodes:
            raise diamond.ResourceLimitError(
                "product exceeds %d nodes" % max_nodes)
        queue.append((s, left, label, back))

    offer(chain.init, frozenset([phi]), {}, (0,) * len(names), None)
    while queue:
        entry = queue.popleft()
        s, left, label, _ = entry
        need = label[len(left):]
        if names and (label not in labels[s, left].points
                      or found.member(need)):
            continue  # replaced by a better label, or above a found point
        pending = zip(order[left], label[:len(left)])
        for rest, older, more in _step(chain.labels[s], pending):
            need2 = (tuple(max(n, more.get(x, 0)) for x, n in zip(names, need))
                     if more else need)
            if max(need2, default=0) > bound or names and found.member(need2):
                continue
            if rest:
                for t in sorted(chain.successors(s)):
                    offer(t, rest, older, need2, entry)
                continue
            found.insert(need2)
            if path is None:
                path, back = [], entry
                while back is not None:
                    path.append(back[0])
                    back = back[3]
                path.reverse()
            if not any(need2):
                return found, path  # the origin is below every other point
    return found, path


def _uniform_bound(chain, nnf):
    """m * |phi|, with the NNF formula's constant bounds unfolded."""
    return chain.m * unfolded_size(nnf)


def emptiness_pos_fx(chain, phi,
                     max_nodes=diamond.DEFAULT_MAX_PRODUCT_NODES):
    """Decide whether V>0 is empty; on nonempty also produce a witness.

    Returns (empty, witness_valuation, witness_path).  The witness path
    is a shortest chain state sequence whose trace satisfies the
    parameter-free formula; the valuation sets every variable to
    m * |phi|.  More than `max_nodes` search nodes raise
    diamond.ResourceLimitError.
    """
    nnf = to_nnf(phi)
    _, path = _pareto_front(chain, strip_params(nnf), (), 0, max_nodes)
    if path is None:
        return True, None, None
    vbar = _uniform_bound(chain, nnf)
    return False, {x: vbar for x in variables(phi)}, path


def emptiness_as1_fx(chain, phi, checker=None):
    """True iff V=1 is empty, decided at the uniform valuation."""
    if checker is None:
        checker = diamond.DiamondChecker(phi)
    vbar = _uniform_bound(chain, to_nnf(phi))
    return not checker.check_as1(chain, {x: vbar for x in variables(phi)})


def min_set_fx(chain, phi, max_nodes=diamond.DEFAULT_MAX_PRODUCT_NODES):
    """Minimal valuations of V>0 over {0..m*|phi|}^d, found by the
    label-setting search without a membership oracle.  More than
    `max_nodes` labels raise diamond.ResourceLimitError."""
    nnf = to_nnf(phi)
    # Every countdown step of a constant bound is a node of its own,
    # so the depth the general engine refuses is refused here too.
    diamond.check_depth(unfolded_depth(nnf))
    bound = _uniform_bound(chain, nnf)
    return _pareto_front(chain, nnf, variables(nnf), bound, max_nodes)[0]
