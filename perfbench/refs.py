"""Reference answers that share no code with the engines.

Every function here works on the benchmark's own `Chain` data and
re-derives the answer from the semantics by a different method than
the engine it checks:

* bounded reachability by the plain step recurrence (exact `Fraction`s,
  or modulo a prime where only equality with a printed value is needed);
* minimal antichains of reachability conjunctions by enumerating the
  first-hit times along paths;
* bounded response and repeated reachability by a search over
  (state, age of the oldest open obligation) configurations;
* CNF fixtures by propositional brute force.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

PRIME = (1 << 61) - 1


def reach_support(chain, prop, threshold):
    """Least n with Pr(F[<=n] prop) > 0 (or = 1), or None.

    Uses the boolean recurrence: a state reaches surely (possibly) within
    n steps iff it is a target or all (some) successors do within n-1.
    The values only change during the first m steps.
    """
    m = chain.m
    target = [prop in chain.labels[s] for s in range(m)]
    cur = list(target)
    combine = all if threshold == "=1" else any
    for n in range(m + 1):
        if cur[chain.init]:
            return n
        cur = [target[s] or combine(cur[t] for t in chain.rows[s])
               for s in range(m)]
    return None


def reach_prob_iter(chain, prop):
    """Yield Pr(F[<=n] prop) from the initial state for n = 0, 1, ..."""
    m = chain.m
    target = [prop in chain.labels[s] for s in range(m)]
    x = [Fraction(int(t)) for t in target]
    while True:
        yield x[chain.init]
        x = [Fraction(1) if target[s]
             else sum((p * x[t] for t, p in chain.rows[s].items()), Fraction(0))
             for s in range(m)]


def reach_prob(chain, prop, n):
    for k, value in enumerate(reach_prob_iter(chain, prop)):
        if k == n:
            return value


def reach_prob_mod(chain, prop, n):
    """Pr(F[<=n] prop) modulo PRIME, for checking a printed fraction."""
    m = chain.m
    target = [prop in chain.labels[s] for s in range(m)]
    rows = [[(t, p.numerator * pow(p.denominator, -1, PRIME) % PRIME)
             for t, p in chain.rows[s].items()] for s in range(m)]
    x = [int(t) for t in target]
    for _ in range(n):
        x = [1 if target[s] else sum(p * x[t] for t, p in rows[s]) % PRIME
             for s in range(m)]
    return x[chain.init]


def fraction_mod(value):
    return value.numerator * pow(value.denominator, -1, PRIME) % PRIME


def reach_min_geq(chain, prop, p, limit=100_000):
    """Least n with Pr(F[<=n] prop) >= p.

    The generated chains reach `prop` almost surely, so the scan ends;
    `limit` only guards against a generator bug.
    """
    for n, value in enumerate(reach_prob_iter(chain, prop)):
        if value >= p:
            return n
        if n >= limit:
            raise RuntimeError("reference scan passed %d steps" % limit)


def first_hit_antichain(chain, props):
    """Minimal vectors of first-hit times, one per proposition.

    `props` maps a variable name to the proposition it waits for.  A
    vector v is in the answer of F[<=x1] p1 & ... at threshold >0 iff
    some finite path sees each p_i by time v_i, so the minimal valuations
    are the minimal first-hit vectors over all paths.  Paths are
    enumerated layer by layer; once every proposition has been hit or
    the horizon d*m passes, no new minimal vector can appear.
    """
    names = sorted(props)
    wanted = [props[x] for x in names]
    horizon = len(names) * chain.m

    def hits_at(s, t, hits):
        lab = chain.labels[s]
        return tuple(h if h is not None or p not in lab else t
                     for h, p in zip(hits, wanted))

    layer = {(chain.init, hits_at(chain.init, 0, (None,) * len(wanted)))}
    found = set()
    for t in range(1, horizon + 2):
        nxt = set()
        for s, hits in layer:
            if None not in hits:
                found.add(hits)
                continue
            for u in chain.rows[s]:
                nxt.add((u, hits_at(u, t, hits)))
        layer = nxt
        if not layer:
            break
    points = sorted(found)
    minimal = [p for p in points
               if not any(q != p and all(a <= b for a, b in zip(q, p))
                          for q in points)]
    return [dict(zip(names, p)) for p in minimal]


def _sccs(n, succ):
    """Strongly connected components (iterative Kosaraju)."""
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    comp = [-1] * n
    comps = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        members = [root]
        comp[root] = len(comps)
        i = 0
        while i < len(members):
            for w in pred[members[i]]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    members.append(w)
            i += 1
        comps.append(members)
    return comps, comp


def bottom_components(chain):
    succ = [list(chain.rows[s]) for s in range(chain.m)]
    comps, comp = _sccs(chain.m, succ)
    return [set(c) for i, c in enumerate(comps)
            if all(comp[t] == i for s in c for t in succ[s])]


def _reachable(chain, start):
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in chain.rows[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class _Obligation:
    """Configurations (state, age) for G (trigger -> F[<=x] target).

    The age is that of the oldest open obligation at the current
    position, or None.  A trigger position opens an obligation unless it
    is a target itself; reaching a target closes all open ones.  A path
    satisfies the formula at x iff every age it shows is below x.
    Buchi G F[<=x] a is the case where every state triggers.
    """

    def __init__(self, chain, trigger, target):
        self.chain = chain
        self.trigger = [trigger is None or trigger in chain.labels[s]
                        for s in range(chain.m)]
        self.target = [target in chain.labels[s] for s in range(chain.m)]

    def start(self, s):
        return None if self.target[s] or not self.trigger[s] else 0

    def step(self, age, t):
        if self.target[t]:
            return None
        if age is None:
            return self.start(t)
        return age + 1

    def need(self, starts, allowed=None):
        """1 + the largest age reachable from `starts`, or None if unbounded.

        Ages only grow along target-free stretches; one reaching m means
        a target-free cycle, which can be pumped without limit.
        """
        m = self.chain.m
        seen = set(starts)
        stack = list(starts)
        worst = 0
        while stack:
            s, age = stack.pop()
            if age is not None:
                if age >= m:
                    return None
                worst = max(worst, age + 1)
            for t in self.chain.rows[s]:
                if allowed is not None and t not in allowed:
                    continue
                cfg = (t, self.step(age, t))
                if cfg not in seen:
                    seen.add(cfg)
                    stack.append(cfg)
        return worst


def obligation_min(chain, trigger, target, threshold):
    """Least x for G (trigger -> F[<=x] target) at >0 or =1, or None.

    =1: no reachable path may show an age of x or more, so the answer is
    `need` from the initial configuration.

    >0: some path must reach a bottom component B with no obligation
    open, and B's own need must not exceed x (inside B every finite path
    recurs).  The cheapest such path minimises the largest age it shows,
    a bottleneck shortest path over configurations.
    """
    ob = _Obligation(chain, trigger, target)
    init = (chain.init, ob.start(chain.init))
    if threshold == "=1":
        return ob.need([init])
    need_of = {}
    for comp in bottom_components(chain):
        need = ob.need([(s, ob.start(s)) for s in comp], allowed=comp)
        if need is not None:
            for s in comp:
                need_of[s] = need
    m = chain.m
    best = {init: 0 if init[1] is None else init[1] + 1}
    heap = [(best[init], init)]
    answer = None
    while heap:
        cost, (s, age) = heapq.heappop(heap)
        if cost > best[(s, age)]:
            continue
        if age is None and s in need_of:
            value = max(cost, need_of[s])
            answer = value if answer is None else min(answer, value)
        for t in chain.rows[s]:
            a2 = ob.step(age, t)
            if a2 is not None and a2 >= m:
                continue
            c2 = max(cost, 0 if a2 is None else a2 + 1)
            if c2 < best.get((t, a2), c2 + 1):
                best[(t, a2)] = c2
                heapq.heappush(heap, (c2, (t, a2)))
    return answer


def genbuchi_nonempty_pos(chain, props):
    """Some reachable bottom component keeps every prop within a bound."""
    reach = _reachable(chain, chain.init)
    for comp in bottom_components(chain):
        if not comp & reach:
            continue
        if all(_Obligation(chain, None, p).need(
                [(s, None) for s in comp], allowed=comp) is not None
               for p in props):
            return True
    return False


def cnf_tautology(clauses, n_vars):
    """Does every assignment satisfy the CNF?"""
    for bits in product((False, True), repeat=n_vars):
        if not all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
                   for cl in clauses):
            return False
    return True
