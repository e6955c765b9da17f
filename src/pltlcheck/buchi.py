"""Parametric repeated reachability: thresholds on Pr(always eventually-within-x a).

For "G F[<=x] a" the analysis is purely graph-theoretic: per-BSCC
longest a-free runs (gaps) decide which bottom components can satisfy
the formula, and one minimax search over a-free streaks between the
a-states gives the minimal positive-probability valuation.
Conjunctions over several propositions (generalized queries) reduce to
per-component checks; their minimal positive-probability valuations
come from the general product-automaton checker's valuation search
(`DiamondChecker.min_set`).
"""

from __future__ import annotations

import heapq
import math

from . import markov
from .valuation import MinimalSet


def gap_of_bscc(chain, component, name):
    """Longest run of consecutive a-free states inside the BSCC (or
    any set of states).

    Counted as the number of states visited; 0 when every state carries
    the label, math.inf when the component has an a-free cycle.
    """
    free = {s for s in component if name not in chain.labels[s]}
    run = markov.longest_run(free, chain.successors)
    return math.inf if run is None else run


def _reachable_bsccs(chain):
    """The bottom components the initial state reaches."""
    reachable = markov.reachable_states(chain)
    scc = markov.scc_decompose(chain)
    return [scc.components[i] for i in scc.bottom_components()
            if scc.components[i] & reachable]


def accepting_bsccs(chain, name):
    """Reachable BSCCs whose every cycle contains an a-state, with gaps."""
    gaps = [(comp, gap_of_bscc(chain, comp, name))
            for comp in _reachable_bsccs(chain)]
    return [(comp, gap) for comp, gap in gaps if gap != math.inf]


def _streak_search(chain, name, goal):
    """Yield (cost, v) for the initial state and the a-states in the
    order a minimax (bottleneck) search pops them (Pollack, 1960).

    From a popped u, not in `goal`, walk breadth-first through a-free
    states only; each branch ends at its first a-state v, whose streak
    counts the a-free states passed, u too when it is a-free (only the
    initial state can be).  v is relaxed to max(cost(u), streak).
    Weighting u-v by full distances d(u, v), less one when u is an
    a-state, gives the same costs.  Walks are paths, so none weighs
    less; and if a shortest u-v path passes an a-state w, the segments
    u-w and w-v each weigh less than u-v, so by induction on d(u, v)
    a-free walks reach v at no higher bottleneck.
    """
    labels = chain.labels
    best = {chain.init: 0}
    queue = [(0, chain.init)]
    done = set()
    while queue:
        cost, u = heapq.heappop(queue)
        if u in done:
            continue
        done.add(u)
        yield cost, u
        if u in goal:
            continue
        streak = 0 if name in labels[u] else 1
        seen = {u}
        frontier = [u]
        while frontier:
            relaxed = max(cost, streak)
            nxt = []
            for s in frontier:
                for t in chain.successors(s):
                    if t in seen:
                        continue
                    seen.add(t)
                    if name not in labels[t]:
                        nxt.append(t)
                    elif relaxed < best.get(t, math.inf):
                        best[t] = relaxed
                        heapq.heappush(queue, (relaxed, t))
            frontier = nxt
            streak += 1


def c_min(chain, name, component):
    """Least n such that a path from the initial state enters the
    component's a-states with no n+1 consecutive a-free states."""
    goal = {s for s in component if name in chain.labels[s]}
    return next((cost for cost, v in _streak_search(chain, name, goal)
                 if v in goal), math.inf)


def min_val_pos_buchi(chain, name):
    """Least n with Pr(G F[<=n] a) > 0, or None when no valuation works.

    n0 = min over accepting BSCCs B of max(gap(B), c_min(B)).  One
    `_streak_search` serves every B: the first popped a-state of B
    carries c_min(B), and the search stops once a popped cost reaches
    the best n0 so far, since no later B can do better.
    """
    gap_of = {s: gap for comp, gap in accepting_bsccs(chain, name)
              for s in comp if name in chain.labels[s]}
    if not gap_of:
        return None
    best = math.inf
    for cost, v in _streak_search(chain, name, gap_of):
        if cost >= best:
            break
        if v in gap_of:
            best = min(best, max(cost, gap_of[v]))
    return best


def min_val_as1_buchi(chain, name):
    """Least n with Pr(G F[<=n] a) = 1, or None.

    The probability is 1 exactly when no reachable path contains n+1
    consecutive a-free states, so the answer is the longest a-free run
    over the whole reachable subgraph, counted as a BSCC gap is (None if
    an a-free cycle is reachable).
    """
    run = gap_of_bscc(chain, markov.reachable_states(chain), name)
    return None if run == math.inf else run


def emptiness_pos_genbuchi(chain, names):
    """Is V>0 empty for the conjunction of G F[<=xi] ai?

    Nonempty iff some reachable BSCC is accepting for every proposition
    at once.
    """
    return not any(all(gap_of_bscc(chain, comp, a) != math.inf
                       for a in names)
                   for comp in _reachable_bsccs(chain))


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
