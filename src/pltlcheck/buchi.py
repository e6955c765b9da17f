"""Parametric repeated reachability: thresholds on Pr(always eventually-within-x a).

For "G F[<=x] a" the analysis is purely graph-theoretic: per-BSCC
longest a-free runs decide which bottom components can satisfy the
formula, and a minimax path search over the a-states gives the minimal
positive-probability valuation.  Conjunctions over several propositions
(generalized queries) reduce to per-component checks; their minimal
positive-probability valuations come from the general product-automaton
checker's valuation search (`DiamondChecker.min_set`).
"""

from __future__ import annotations

import heapq
import math

from . import markov
from .valuation import MinimalSet


def gap_of_bscc(chain, component, name):
    """Longest run of consecutive a-free states inside the BSCC.

    Counted as the number of states visited; 0 when every state carries
    the label, math.inf when the component has an a-free cycle.
    """
    free = {s for s in component if name not in chain.labels[s]}
    return _longest_free_run(chain, free)


def _longest_free_run(chain, free):
    """Longest vertex-count path through the set of `free` states,
    math.inf when they hold a cycle."""
    order = markov.dag_order(free, chain.successors)
    if order is None:
        return math.inf
    longest = {}
    for s in order:
        longest[s] = 1 + max((longest[t] for t in chain.successors(s)
                              if t in free), default=0)
    return max(longest.values(), default=0)


def accepting_bsccs(chain, name):
    """Reachable BSCCs whose every cycle contains an a-state, with gaps."""
    reachable = markov.reachable_states(chain)
    scc = markov.scc_decompose(chain)
    result = []
    for i in scc.bottom_components():
        comp = scc.components[i]
        if not comp & reachable:
            continue
        gap = gap_of_bscc(chain, comp, name)
        if gap != math.inf:
            result.append((comp, gap))
    return result


class _DistanceRows(dict):
    """BFS distance rows of `chain` by source state, each computed when
    first read."""

    def __init__(self, chain):
        self.chain = chain

    def __missing__(self, source):
        row = self[source] = markov.distances_from(self.chain, source)
        return row


def c_min(chain, name, component, dist=None):
    """Minimax-gap cost of reaching the component's a-states.

    Vertices are the initial state plus every a-state of the chain; an
    edge costs the shortest-path distance between its endpoints, less
    one when the source itself carries the label (the position right
    after an a-state is already one step closer to the next a-state),
    and a path costs the maximum edge it uses.  A priority-queue
    relaxation F(v) := min(F(v), max(F(u), c(u, v))) pops vertices in
    cost order until an a-state of `component` comes off the queue.
    Only the distance rows of popped vertices are read.
    """
    if dist is None:
        dist = _DistanceRows(chain)
    goal = {s for s in component if name in chain.labels[s]}
    vertices = sorted(chain.states_with(name) | {chain.init})
    best = {v: math.inf for v in vertices}
    best[chain.init] = 0
    queue = [(0, chain.init)]
    done = set()
    while queue:
        cost, u = heapq.heappop(queue)
        if u in done or cost > best[u]:
            continue
        if u in goal:
            return cost
        done.add(u)
        discount = 1 if name in chain.labels[u] else 0
        row = dist[u]
        for v in vertices:
            if v in done or row[v] == math.inf:
                continue
            relaxed = max(cost, row[v] - discount)
            if relaxed < best[v]:
                best[v] = relaxed
                heapq.heappush(queue, (relaxed, v))
    return math.inf


def min_val_pos_buchi(chain, name):
    """Least n with Pr(G F[<=n] a) > 0, or None when no valuation works.

    Per accepting BSCC: if the initial state is at least gap-many steps
    from the component's a-states, the in-component gap already covers
    the approach and n0 is the gap alone; otherwise the approach cost
    (minimax over routes through a-states) can dominate.
    """
    accepting = accepting_bsccs(chain, name)
    if not accepting:
        return None
    dist = _DistanceRows(chain)
    best = None
    for comp, gap in accepting:
        d0 = min(dist[chain.init][s]
                 for s in comp if name in chain.labels[s])
        if gap < d0:
            n0 = max(gap, c_min(chain, name, comp, dist))
        else:
            n0 = gap
        if best is None or n0 < best:
            best = n0
    return best


def min_val_as1_buchi(chain, name):
    """Least n with Pr(G F[<=n] a) = 1, or None.

    The probability is 1 exactly when no reachable path contains n+1
    consecutive a-free states, so the answer is the longest a-free run
    over the whole reachable subgraph (None if an a-free cycle is
    reachable).
    """
    reachable = markov.reachable_states(chain)
    free = {s for s in reachable if name not in chain.labels[s]}
    run = _longest_free_run(chain, free)
    return None if run == math.inf else run


def emptiness_pos_genbuchi(chain, names):
    """Is V>0 empty for the conjunction of G F[<=xi] ai?

    Nonempty iff some reachable BSCC is accepting for every proposition
    at once.
    """
    reachable = markov.reachable_states(chain)
    scc = markov.scc_decompose(chain)
    for i in scc.bottom_components():
        comp = scc.components[i]
        if not comp & reachable:
            continue
        if all(gap_of_bscc(chain, comp, a) != math.inf for a in names):
            return False
    return True


def min_set_pos_genbuchi(chain, conjuncts, checker):
    """Minimal valuations of V>0 for a conjunction of G F[<=xi] ai.

    `conjuncts` lists (variable, proposition) pairs; `checker` is the
    general engine's DiamondChecker for the conjunction.  Emptiness is
    decided on the graph first; otherwise the checker searches
    {0, ..., m * d}^k, with d the number of conjuncts.
    """
    if emptiness_pos_genbuchi(chain, [a for _, a in conjuncts]):
        return MinimalSet(checker.user_names)
    return checker.min_set(chain, "pos", chain.m * len(conjuncts))


def min_set_as1_genbuchi(chain, conjuncts, names):
    """Minimal valuations of V=1 for a conjunction of G F[<=xi] ai.

    An intersection of almost-sure events is almost sure iff each one
    is, so the answer is the single point of per-conjunct minima (with
    a max where conjuncts share a variable), or empty.
    """
    value = {x: 0 for x in names}
    for x, a in conjuncts:
        n0 = min_val_as1_buchi(chain, a)
        if n0 is None:
            return MinimalSet(names)
        value[x] = max(value[x], n0)
    return MinimalSet(names, [tuple(value[x] for x in names)])


def check_pos(chain, name, n):
    v = min_val_pos_buchi(chain, name)
    return v is not None and v <= n


def check_as1(chain, name, n):
    v = min_val_as1_buchi(chain, name)
    return v is not None and v <= n
