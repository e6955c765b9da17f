"""Parametric reachability: thresholds on Pr(eventually-within-x a).

For the single-variable formula "F[<=x] a" the satisfying valuations
form an upward closed subset of the naturals, so each query reduces to
one minimal value n0 (or emptiness).  Three thresholds are supported:
strictly positive probability, probability one, and >= p for a rational
p strictly between 0 and 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import markov


class ReachError(ValueError):
    pass


def min_val_pos(chain, name):
    """Least n with Pr(reach an a-state within n) > 0, or None.

    This is the shortest-path distance from the initial state to any
    state labeled `name`.
    """
    targets = chain.states_with(name)
    if not targets:
        return None
    dist = markov.distances_from(chain, chain.init)
    best = min(dist[t] for t in targets)
    return None if best == math.inf else best


def min_val_as1(chain, name):
    """Least n with Pr(reach an a-state within n) = 1, or None.

    Treating a-states as absorbing, the probability hits 1 at a finite
    bound iff no cycle through non-a states is reachable; the bound is
    then the longest path into the a-states.
    """
    targets = chain.states_with(name)
    # Non-target states reachable without first entering a target; none
    # when the initial state is a target.
    region = markov.reachable_states(chain, chain.init, targets) - targets
    # Every region state steps into the region or a target, so the
    # answer is the most states on a path through the region from the
    # initial state; none when the region has a cycle.  Each region
    # state is reached from there through the region, so that path is
    # the longest in the region.
    return markov.longest_run(region, chain.successors)


def min_val_geq(chain, name, p):
    """Least n with Pr(reach an a-state within n) >= p, or None.

    `p` must be a rational strictly between 0 and 1; comparisons are
    exact.  The bounded probabilities mu_n are nondecreasing with limit
    mu_infinity, so the search walks n upward and the emptiness test is
    a comparison against the limit.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ReachError("threshold must satisfy 0 < p < 1")
    targets = chain.states_with(name)
    mu_inf = markov.unbounded_reach_prob(chain, targets) if targets else Fraction(0)
    if mu_inf < p:
        return None
    if mu_inf == p and markov.settling_step(chain, targets,
                                            chain.init) is None:
        return None
    return _first_step_geq(chain, targets, p)


def _first_step_geq(chain, targets, p, last=None):
    """Least n (at most `last`, when given) with mu_n >= p, or None.

    Walks n upward; mu_n = y[slot[init]] / d, so each step compares
    two integers.  Without `last` the caller must know that some n
    works.  With it, a walk to `last` past the stepping cap raises
    before the first step.
    """
    slot, walk = markov.reach_steps(chain, targets, chain.init, last)
    i = slot[chain.init]
    for n, (y, d) in enumerate(walk):
        if y[i] * p.denominator >= p.numerator * d:
            return n
        if n == last:
            return None


def emptiness_geq(chain, name, p):
    """True iff no valuation satisfies Pr(F[<=x] a) >= p."""
    return min_val_geq(chain, name, p) is None


def check_pos(chain, name, n):
    v = min_val_pos(chain, name)
    return v is not None and v <= n


def check_as1(chain, name, n):
    v = min_val_as1(chain, name)
    return v is not None and v <= n


def check_geq(chain, name, p, n):
    """Pr(reach an a-state within n) >= p, for a natural n.

    mu_n is nondecreasing in n, so the walk stops at the first step
    that meets p; a false answer still steps all n times.  When the
    walk to n would pass the stepping cap, the answer is read off
    `min_val_geq`, which compares p with the limit before it walks.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ReachError("threshold must satisfy 0 < p < 1")
    if n < 0:
        raise markov.ChainError("step bound must be a natural number")
    try:
        return _first_step_geq(chain, chain.states_with(name), p,
                               n) is not None
    except markov.ResourceLimitError:
        n0 = min_val_geq(chain, name, p)
        return n0 is not None and n0 <= n
