"""Pipeline for the next/eventually fragment (literals, and, or, X, F).

Its formulas are co-safe: a valuation v is in V>0 iff some finite chain
path satisfies phi[v].  One search answers emptiness of V>0, its
minimal valuations and membership of one valuation.  It runs over
(chain state, pending obligations) pairs, stepped by formula
progression (Bacchus and Kabanza, 2000).

Every obligation is a node of phi: its distinct subformulas are
numbered by their place in one postorder walk, children first, and a
pair's pending obligations are an int bit mask over those numbers,
read in ascending order.  The ways each subformula can hold at a
letter form a meet table, built once per letter from that walk and
cut: a way goes when an earlier way asks no more.  A step joins the
tables of the pending obligations.  The search builds no formula and
reads no formula text.

The minimal valuations of V>0 are the Pareto front of a multi-criteria
path search, found by label setting (Martins, 1984).  Each pending
F[<=x] psi or F[<=c] psi carries its age, the number of steps since it
had to hold.  Discharging F[<=x] psi at age a needs x >= a, and so does
keeping it pending until age a; F[<=c] psi may be kept pending only
until age c, so a constant bound is never unfolded.  Per pair, only
the Pareto-minimal (ages, needs) labels are kept, so a waiting F[<=c]
is put out by its younger self.  Dickson's lemma makes the search
finite.  Emptiness runs the search on the parameter-free formula with
no variables, where it is breadth-first: the first path to finish is a
shortest witness path, and v(x) = m * |phi| (constant bounds unfolded)
is a witness valuation.

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
    _FX_NODES, And, Atom, BoundedEventually, Eventually, FragmentError,
    NegAtom, Next, Or, VarBound, closure, strip_params, to_nnf,
    unfolded_size, variables,
)
from .valuation import MinimalSet
from . import diamond

# A way is (obligations, ages, needs): the bit mask of the obligations
# left for the next position, the age there of each pending bounded
# eventually older than 0 (keyed by its number) and the least value
# each variable needs.  Ways are never changed in place.
_DONE = (0, {}, {})


def _max_merge(a, b):
    """The entries of both dicts, the larger value where both have one."""
    out = dict(a)
    for k, n in b.items():
        out[k] = max(out.get(k, 0), n)
    return out


def _both(v, w):
    """Both ways at once.  Two copies of one obligation merge into the
    older: its deadline is the earlier."""
    return (v[0] | w[0], _max_merge(v[1], w[1]) if w[1] else v[1],
            _max_merge(v[2], w[2]) if w[2] else v[2])


def _no_more(v, w):
    """Does way v ask no more than way w: fewer obligations, none older,
    and no larger need?"""
    return (v[0] | w[0] == w[0]
            and (not v[1] or all(age <= w[1].get(i, 0)
                                 for i, age in v[1].items()))
            and (not v[2] or all(n <= w[2].get(x, 0)
                                 for x, n in v[2].items())))


def _cut(ways):
    """`ways` without each way that some earlier way asks no more than.
    Meet tables hold cut lists, and a step cuts its joins sorted by
    size.  Cutting a meet list changes no step: if v comes before w and
    asks no more, then for every way u, u joined with v asks no more
    than u joined with w and is sorted before it, so the step drops the
    latter anyway."""
    if len(ways) < 2:
        return ways
    kept = []
    for w in ways:
        if not any(_no_more(v, w) for v in kept):
            kept.append(w)
    return kept


def _size(way):
    return way[0].bit_count()


def _members(mask):
    """The numbers of the bits set in `mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pareto_front(chain, phi, names, bound, max_nodes):
    """Minimal valuations of V>0 within {0..bound}^d by label setting,
    and the chain path of the first label to finish (None if none does).

    The labels of a pair (chain state, pending mask) form an antichain
    over its pending formulas (their ages) and then `names` (their
    needs; a pending F[<=x] of age a already needs x >= a).  A label
    that needs more than `bound` cannot reach a point of the box, and
    one whose needs are above a found point cannot reach a new minimal
    point: both are dropped.  Labels are expanded first in, first out,
    each entry linked to the one it came from.  With no `names` the
    search is breadth-first and ends at the first label to finish, on a
    shortest path: a label there also counts its steps, so that only a
    label met no later can put it out.  With no bounded eventually in
    phi every label is all zeros, a pair holds at most one label, and a
    plain set of the pairs offered replaces the antichains.  More than
    `max_nodes` labels raise diamond.ResourceLimitError.

    Obligation k is nodes[k], the k-th distinct subformula of phi in
    one postorder walk, children first.  At each letter met, the ways
    of all of them are built once, in that order, and those of a
    pending (obligation, age) are read off them.
    """
    found = MinimalSet(names)
    nodes = closure(phi)
    place = {f: k for k, f in enumerate(nodes)}
    timed = any(type(f) is BoundedEventually for f in nodes)
    tables = {}  # letter -> the ways of each node of `nodes` there
    rows = {}   # letter -> {(obligation number, age): its ways there}
    # (chain state, pending mask) -> MinimalSet of labels; None with no
    # bounded eventually, where the key alone marks the pair as seen.
    labels = {}
    order = {}  # pending mask -> its obligation numbers, ascending
    succ = {}   # chain state -> its successors, sorted
    queue = deque()
    count = 0
    path = None

    def later(k, f):
        """The way that leaves f, node k, for the next position, if any.
        Only a pending bounded eventually is ever older than 0: every
        other obligation is due where it is met."""
        kind = type(f)
        if kind is Next:
            return (1 << place[f.child], {}, {})
        if kind is Eventually:
            return (1 << k, {}, {})
        if kind is BoundedEventually and type(f.bound) is VarBound:
            return (1 << k, {k: 1}, {f.bound.name: 1})
        if kind is BoundedEventually and f.bound.value:
            return (1 << k, {k: 1}, {})
        return None

    steps = []
    for k, f in enumerate(nodes):
        kind = type(f)
        if kind not in _FX_NODES:
            raise FragmentError(
                "formula is outside the next/eventually fragment")
        steps.append((kind, f, [place[c] for c in f._kids], later(k, f)))

    def table(letter):
        """The ways of every node of `nodes` at `letter`."""
        meets = []
        for kind, f, kids, then in steps:
            if kind is Atom:
                ways = [_DONE] if f.name in letter else []
            elif kind is NegAtom:
                ways = [] if f.name in letter else [_DONE]
            elif kind is Or:
                ways = meets[kids[0]] + meets[kids[1]]
            elif kind is And:
                right = meets[kids[1]]
                ways = [_both(a, b) for a in meets[kids[0]] for b in right]
            elif kind is Next:
                ways = [then]
            else:
                # F, F[<=x] and F[<=c]: the child now, or f later.  At
                # age 0, discharging F[<=x] now needs only x >= 0.
                ways = meets[kids[0]] + [then] if then else meets[kids[0]]
            meets.append(_cut(ways))
        return meets

    def meet(k, age, meets):
        """The ways of pending obligation k, `age` steps after it had to
        hold, from the ways of the nodes of `nodes`."""
        if not age:
            return meets[k]
        f = nodes[k]
        now = meets[place[f.child]]
        if type(f.bound) is VarBound:
            # Waiting commits x to at least the next age, so discharging
            # now with nothing left is a way below waiting.
            x = f.bound.name
            return _cut([(left, ages, _max_merge(need, {x: age}))
                         for left, ages, need in now]
                        + [(1 << k, {k: age + 1}, {x: age + 1})])
        if age >= f.bound.value:
            return now  # F[<=c] may wait only while its age is below c
        return _cut(now + [(1 << k, {k: age + 1}, {})])

    def offer(s, left, ages, need, back):
        nonlocal count
        ids = order.get(left)
        if ids is None:
            ids = order[left] = tuple(_members(left))
        label = (tuple(ages.get(i, 0) for i in ids)
                 if ages else (0,) * len(ids)) + need
        if timed:
            if not names:
                # Breadth-first: a label counts its steps, so that only
                # a label met no later than itself can put it out.
                label += (back[2][-1] + 1 if back else 0,)
            kept = labels.get((s, left))
            if kept is None:
                kept = labels[s, left] = MinimalSet(range(len(label)))
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

    offer(chain.init, 1 << place[phi], {}, (0,) * len(names), None)
    while queue:
        entry = queue.popleft()
        s, left, label, _ = entry
        ids = order[left]
        need = label[len(ids):len(ids) + len(names)]
        if timed and (label not in labels[s, left].points
                      or found.member(need)):
            continue  # replaced by a better label, or above a found point
        letter = chain.labels[s]
        row = rows.get(letter)
        if row is None:
            row = rows[letter] = {}
            tables[letter] = table(letter)
        # The minimal ways to meet every pending (obligation, age) here,
        # fewest obligations first, in an order fixed by `ids`.
        ways = [_DONE]
        for key in zip(ids, label):
            meets = row.get(key)
            if meets is None:
                meets = row[key] = meet(*key, tables[letter])
            if len(ways) == 1 and len(meets) == 1:
                ways = [_both(ways[0], meets[0])]
                continue
            ways = _cut(sorted([_both(w, m) for w in ways for m in meets],
                               key=_size))
            if not ways:
                break
        for rest, older, more in ways:
            need2 = (tuple(max(n, more.get(x, 0)) for x, n in zip(names, need))
                     if more else need)
            if max(need2, default=0) > bound or names and found.member(need2):
                continue
            if rest:
                nexts = succ.get(s)
                if nexts is None:
                    nexts = succ[s] = sorted(chain.successors(s))
                for t in nexts:
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


def emptiness_as1_fx(chain, phi):
    """True iff V=1 is empty, decided at the uniform valuation."""
    checker = diamond.DiamondChecker(phi)
    vbar = _uniform_bound(chain, to_nnf(phi))
    return not checker.check_as1(chain, {x: vbar for x in variables(phi)})


def min_set_fx(chain, phi, max_nodes=diamond.DEFAULT_MAX_PRODUCT_NODES):
    """Minimal valuations of V>0 over {0..m*|phi|}^d, found by the
    label-setting search without a membership oracle.  More than
    `max_nodes` labels raise diamond.ResourceLimitError."""
    nnf = to_nnf(phi)
    bound = _uniform_bound(chain, nnf)
    return _pareto_front(chain, nnf, variables(nnf), bound, max_nodes)[0]
