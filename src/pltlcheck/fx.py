"""Pipeline for the next/eventually fragment (literals, and, or, X, F).

Positive-probability emptiness works per disjunct of a disjunctive
normal form: each disjunct is stripped of its parameters, compiled to a
small deterministic automaton with an absorbing final state, and tested
for reachability of acceptance in the product with the chain.  A finite
chain path witnessing acceptance also witnesses the uniform valuation
v(x) = m * |phi| for every parameter, which bounds the whole search.

The automaton construction covers the shapes reachable by a set of
eventually-normalization rewrites; disjuncts that fall outside (e.g. an
eventually over a next-rooted and literal mix) are decided by the
general product checker at the same uniform valuation instead.
"""

from __future__ import annotations

from .formula import (
    And, Atom, BoundedEventually, Eventually, FragmentError, NegAtom, Next,
    Or, rewrite_constant_bounds, size, strip_params, to_nnf, variables,
)
from . import diamond, markov


class DbaShapeError(FragmentError):
    """The formula is outside the shapes the automaton builder covers."""


def dnf_split(phi):
    """Split into disjunction-free formulas whose disjunction is phi.

    Disjunction distributes over conjunction, next and both kinds of
    eventually, so each returned formula is no larger than phi.
    """
    if isinstance(phi, Or):
        return dnf_split(phi.left) + dnf_split(phi.right)
    if isinstance(phi, And):
        return [And(l, r)
                for l in dnf_split(phi.left) for r in dnf_split(phi.right)]
    if isinstance(phi, Next):
        return [Next(c) for c in dnf_split(phi.child)]
    if isinstance(phi, Eventually):
        return [Eventually(c) for c in dnf_split(phi.child)]
    if isinstance(phi, BoundedEventually):
        return [BoundedEventually(phi.bound, c) for c in dnf_split(phi.child)]
    if isinstance(phi, (Atom, NegAtom)):
        return [phi]
    raise FragmentError("formula is outside the next/eventually fragment")


class Dba:
    """Deterministic automaton with one absorbing final state.

    Transitions carry literal guards (required and forbidden atoms); the
    guards leaving a state are mutually exclusive, and a letter matching
    none of them deadlocks the run.  The transition structure is acyclic
    up to self-loops.
    """

    def __init__(self, n, initial, final, trans):
        self.n = n
        self.initial = initial
        self.final = final
        self.trans = trans  # per state: list of (pos, neg, dst)

    def step(self, state, letter):
        for pos, neg, dst in self.trans[state]:
            if pos <= letter and not (neg & letter):
                return dst
        return None

    def assert_partial_order(self):
        """No cycles besides self-loops; raises AssertionError otherwise."""
        def moves(q):
            return [dst for _, _, dst in self.trans[q] if dst != q]
        if markov.dag_order(range(self.n), moves) is None:
            raise AssertionError("automaton has a nontrivial cycle")


def _literal_guard(lit):
    if isinstance(lit, Atom):
        return frozenset([lit.name]), frozenset()
    return frozenset(), frozenset([lit.name])


def _flatten_and(phi):
    if isinstance(phi, And):
        return _flatten_and(phi.left) + _flatten_and(phi.right)
    return [phi]


def _rebuild_and(parts):
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def build_dba(phi):
    """Automaton for a disjunction-free, parameter-free F/X formula.

    Raises DbaShapeError when normalization cannot bring an eventually
    argument into a covered shape (a literal optionally conjoined with
    eventually-rooted formulas).
    """
    if isinstance(phi, (Atom, NegAtom)):
        pos, neg = _literal_guard(phi)
        return Dba(2, 0, 1, [[(pos, neg, 1)],
                             [(frozenset(), frozenset(), 1)]])
    if isinstance(phi, Next):
        inner = build_dba(phi.child)
        trans = [[(p, n, d + 1) for p, n, d in row] for row in inner.trans]
        trans.insert(0, [(frozenset(), frozenset(), inner.initial + 1)])
        return Dba(inner.n + 1, 0, inner.final + 1, trans)
    if isinstance(phi, And):
        return _product(build_dba(phi.left), build_dba(phi.right))
    if isinstance(phi, Eventually):
        return _build_eventually(phi.child)
    raise FragmentError("formula is outside the next/eventually fragment")


def _build_eventually(arg):
    parts = _flatten_and(arg)
    lits = [p for p in parts if isinstance(p, (Atom, NegAtom))]
    nexts = [p for p in parts if isinstance(p, Next)]
    evs = [p for p in parts if isinstance(p, Eventually)]
    if len(lits) + len(nexts) + len(evs) != len(parts):
        raise FragmentError("formula is outside the next/eventually fragment")
    if len(parts) == 1:
        p = parts[0]
        if isinstance(p, (Atom, NegAtom)):
            pos, neg = _literal_guard(p)
            return Dba(2, 0, 1, [[(pos, neg, 1), (neg, pos, 0)],
                                 [(frozenset(), frozenset(), 1)]])
        if isinstance(p, Eventually):
            return _build_eventually(p.child)
        # F X psi is X F psi.
        return build_dba(Next(Eventually(p.child)))
    if not lits and not evs:
        # All conjuncts start with next: F (X a & X b) is X F (a & b).
        return build_dba(Next(Eventually(_rebuild_and([p.child for p in nexts]))))
    if not lits and not nexts:
        # An eventually over eventualities adds nothing.
        return build_dba(_rebuild_and(evs))
    if len(lits) == 1 and not nexts:
        # Guarded search: sit still until the guard letter, then run the
        # inner automaton, which never deadlocks on eventually shapes.
        inner = build_dba(_rebuild_and(evs))
        gpos, gneg = _literal_guard(lits[0])
        trans = [[(p, n, d + 1) for p, n, d in row] for row in inner.trans]
        first = [(p | gpos, n | gneg, d + 1)
                 for p, n, d in inner.trans[inner.initial]
                 if not ((p | gpos) & (n | gneg))]
        first.append((gneg, gpos, 0))
        trans.insert(0, first)
        return Dba(inner.n + 1, 0, inner.final + 1, trans)
    raise DbaShapeError("eventually argument mixes guards with next operators")


def _product(a, b):
    index = {}
    trans = []
    order = []

    def node(qa, qb):
        key = (qa, qb)
        if key not in index:
            index[key] = len(order)
            order.append(key)
            trans.append(None)
        return index[key]

    start = node(a.initial, b.initial)
    i = 0
    while i < len(order):
        qa, qb = order[i]
        row = []
        for pa, na, da in a.trans[qa]:
            for pb, nb, db in b.trans[qb]:
                pos = pa | pb
                neg = na | nb
                if pos & neg:
                    continue
                row.append((pos, neg, node(da, db)))
        trans[i] = row
        i += 1
    final = index.get((a.final, b.final))
    if final is None:
        final = node(a.final, b.final)
        trans[final] = [(frozenset(), frozenset(), final)]
    return Dba(len(order), start, final, trans)


def _uniform_bound(chain, phi):
    return chain.m * size(phi)


def _prepare(phi):
    return rewrite_constant_bounds(to_nnf(phi))


def emptiness_pos_fx(chain, phi):
    """Decide whether V>0 is empty; on nonempty also produce a witness.

    Returns (empty, witness_valuation, witness_path).  The witness path
    is a chain state sequence whose trace satisfies the parameter-free
    formula; the valuation sets every variable to m * |phi|.
    """
    nnf = _prepare(phi)
    vbar = _uniform_bound(chain, nnf)
    witness_val = {x: vbar for x in variables(phi)}
    checker = None
    for disjunct in dnf_split(nnf):
        stripped = strip_params(disjunct)
        try:
            dba = build_dba(stripped)
        except DbaShapeError:
            if checker is None:
                checker = diamond.DiamondChecker(phi)
            if checker.check_pos(chain, witness_val):
                return False, witness_val, None
            continue
        dba.assert_partial_order()
        path = _accepting_path(chain, dba)
        if path is not None:
            return False, witness_val, path
    return True, None, None


def _accepting_path(chain, dba):
    """Shortest chain path whose trace drives the automaton into final."""
    start = (chain.init, dba.initial)
    parent = {start: None}
    queue = [start]
    while queue:
        nxt = []
        for s, q in queue:
            q2 = dba.step(q, chain.labels[s])
            if q2 is None:
                continue
            if q2 == dba.final:
                path = [s]
                node = parent[(s, q)]
                while node is not None:
                    path.append(node[0])
                    node = parent[node]
                path.reverse()
                return path
            for t in sorted(chain.successors(s)):
                if (t, q2) not in parent:
                    parent[(t, q2)] = (s, q)
                    nxt.append((t, q2))
        queue = nxt
    return None


def emptiness_as1_fx(chain, phi, checker=None):
    """True iff V=1 is empty, decided at the uniform valuation."""
    if checker is None:
        checker = diamond.DiamondChecker(phi)
    nnf = _prepare(phi)
    vbar = _uniform_bound(chain, nnf)
    return not checker.check_as1(chain, {x: vbar for x in variables(phi)})


def min_set_fx(chain, phi, threshold="pos", checker=None):
    """Minimal valuations over {0..m*|phi|}^d via bisection.

    The membership oracle is the general product checker; one automaton
    is shared across all queries.
    """
    if checker is None:
        checker = diamond.DiamondChecker(phi)
    return checker.min_set(chain, threshold,
                           _uniform_bound(chain, _prepare(phi)))
