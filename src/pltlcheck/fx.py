"""Pipeline for the next/eventually fragment (literals, and, or, X, F).

Its formulas are co-safe: V>0 is nonempty iff some finite chain path
satisfies the parameter-free formula, and then v(x) = m * |phi| (constant
bounds unfolded) is a witness.  Emptiness is a breadth-first search over
(chain state, pending obligations) pairs, stepped by formula progression
(Bacchus and Kabanza, 2000); constant bounds count down inside the
obligations instead of being unfolded.  Almost-sure emptiness uses the
general product checker at the same bound, and the minimal valuations
come from its valuation search over {0..m*|phi|}^d.
"""

from __future__ import annotations

from .formula import (
    And, Atom, BoundedEventually, ConstBound, Eventually, FragmentError,
    NegAtom, Next, Or, strip_params, to_nnf, unfolded_size, variables,
)
from . import diamond

_NOTHING = frozenset()


def _meet(f, letter):
    """The ways f can hold at a position labelled `letter`: for each, the
    set of obligations it leaves for the next position."""
    if isinstance(f, Atom):
        return [_NOTHING] if f.name in letter else []
    if isinstance(f, NegAtom):
        return [] if f.name in letter else [_NOTHING]
    if isinstance(f, Or):
        return _meet(f.left, letter) + _meet(f.right, letter)
    if isinstance(f, And):
        right = _meet(f.right, letter)
        return [a | b for a in _meet(f.left, letter) for b in right]
    if isinstance(f, Next):
        return [frozenset([f.child])]
    if isinstance(f, Eventually):
        return _meet(f.child, letter) + [frozenset([f])]
    if isinstance(f, BoundedEventually) and isinstance(f.bound, ConstBound):
        c = f.bound.value
        later = ([frozenset([BoundedEventually(ConstBound(c - 1), f.child)])]
                 if c else [])
        return _meet(f.child, letter) + later
    raise FragmentError("formula is outside the next/eventually fragment")


def _minimal(sets):
    """The inclusion-minimal sets, smallest first, in a fixed order."""
    out = []
    for s in sorted(dict.fromkeys(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def _satisfying_path(chain, phi, max_nodes):
    """Shortest chain path from the initial state whose trace satisfies
    the parameter-free formula phi, or None."""
    def step(s, pending):
        ways = [_NOTHING]
        # Sorted, so that the path found does not depend on hashing.
        for f in sorted(pending, key=str):
            ways = _minimal([w | m for w in ways
                             for m in _meet(f, chain.labels[s])])
        return ways

    start = (chain.init, frozenset([phi]))
    parent = {start: None}
    queue = [start]
    while queue:
        nxt = []
        for node in queue:
            for left in step(*node):
                if not left:
                    path = []
                    while node is not None:
                        path.append(node[0])
                        node = parent[node]
                    return path[::-1]
                for t in sorted(chain.successors(node[0])):
                    child = (t, left)
                    if child not in parent:
                        parent[child] = node
                        nxt.append(child)
                        if len(parent) > max_nodes:
                            raise diamond.ResourceLimitError(
                                "product exceeds %d nodes" % max_nodes)
        queue = nxt
    return None


def _uniform_bound(chain, phi):
    """m * |phi|, with phi's constant bounds unfolded."""
    return chain.m * unfolded_size(to_nnf(phi))


def emptiness_pos_fx(chain, phi,
                     max_nodes=diamond.DEFAULT_MAX_PRODUCT_NODES):
    """Decide whether V>0 is empty; on nonempty also produce a witness.

    Returns (empty, witness_valuation, witness_path).  The witness path
    is a shortest chain state sequence whose trace satisfies the
    parameter-free formula; the valuation sets every variable to
    m * |phi|.  More than `max_nodes` search nodes raise
    diamond.ResourceLimitError.
    """
    path = _satisfying_path(chain, strip_params(to_nnf(phi)), max_nodes)
    if path is None:
        return True, None, None
    vbar = _uniform_bound(chain, phi)
    return False, {x: vbar for x in variables(phi)}, path


def emptiness_as1_fx(chain, phi, checker=None):
    """True iff V=1 is empty, decided at the uniform valuation."""
    if checker is None:
        checker = diamond.DiamondChecker(phi)
    vbar = _uniform_bound(chain, phi)
    return not checker.check_as1(chain, {x: vbar for x in variables(phi)})


def min_set_fx(chain, phi, threshold="pos", checker=None):
    """Minimal valuations over {0..m*|phi|}^d.

    `DiamondChecker.min_set` searches that box with the general product
    checker as membership oracle; one automaton serves every query.
    """
    if checker is None:
        checker = diamond.DiamondChecker(phi)
    return checker.min_set(chain, threshold, _uniform_bound(chain, phi))
