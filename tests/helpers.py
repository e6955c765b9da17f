"""Seeded random generators and brute-force references shared by the
test modules."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

from pltlcheck.diamond import ResourceLimitError, accepts
from pltlcheck.formula import (
    Always, And, Atom, BoundedAlways, BoundedEventually, ConstBound,
    Eventually, FormulaError, FragmentError, NegAtom, Next, Not, Or,
    Release, Until, VarBound, _has_var_bound, _map, atoms, children,
    closure, subformulas, variables,
)
from pltlcheck.markov import (
    _MAX_EXPONENT, ChainError, ChainParseError, MarkovChain, _brief, _nat,
    _quote,
)
from pltlcheck.valuation import MinimalSet, ValuationError


def rewrite_constant_bounds(phi):
    """Unfold F[<=c] / G[<=c] into nested X; output is constant-bound
    free.  The reference for every pass that reads a constant bound as
    a counter or an age."""
    def unfold(f):
        # A zero bound is its child.  The result is not mapped again,
        # only its children are, so every zero bound is dropped here.
        while isinstance(getattr(f, "bound", None), ConstBound) \
                and f.bound.value == 0:
            f = f.child
        if isinstance(f, Not):
            raise FragmentError("cannot rewrite bounds under %r" % f)
        if not isinstance(getattr(f, "bound", None), ConstBound):
            return f
        op = Or if isinstance(f, BoundedEventually) else And
        out = f.child
        for _ in range(f.bound.value):
            out = op(f.child, Next(out))
        return out

    return _map(phi, unfold)


def rename_apart(phi):
    """Rename parameter variables so each occurs exactly once.

    Returns (formula, mapping) where mapping sends each fresh name back
    to the user-facing name it replaced.  Names that already occur once
    are kept.  The reference for the tableau's one counter per variable
    member: renamed apart, every member has a variable of its own.
    """
    counts = {}
    for f in subformulas(phi):
        if _has_var_bound(f):
            counts[f.bound.name] = counts.get(f.bound.name, 0) + 1
    seen = {}
    mapping = {}

    def fresh(f):
        if not _has_var_bound(f):
            return f
        name = f.bound.name
        if counts[name] == 1:
            mapping[name] = name
            return f
        k = seen.get(name, 0)
        seen[name] = k + 1
        new = "%s__%d" % (name, k)
        mapping[new] = name
        return BoundedEventually(VarBound(new), f.child)

    return _map(phi, fresh), mapping


MAX_SCAN_POINTS = 2 * 10 ** 6


def brute_force_min_set(chain, phi, bound, oracle):
    """Exhaustive minimal-valuation scan over {0..bound}^d.

    `oracle(valuation_dict)` decides membership; every point of the box
    is visited in lexicographic order unless already dominated.
    """
    names = variables(phi)
    d = len(names)
    if d == 0:
        raise FormulaError("formula has no parameter variables")
    if (bound + 1) ** d > MAX_SCAN_POINTS:
        raise ValueError("scan box exceeds %d points" % MAX_SCAN_POINTS)
    out = MinimalSet(names)
    for point in itertools.product(range(bound + 1), repeat=d):
        if out.member(point):
            continue
        if oracle(dict(zip(names, point))):
            out.insert(point)
    return out


def nesting_depth(phi):
    """Nodes on the longest root-to-leaf path (1 for a literal), counted
    level by level without recursion."""
    depth, level = 0, [phi]
    while level:
        depth += 1
        level = [c for f in level for c in children(f)]
    return depth


def coin_chain_text():
    """`fixtures.coin_chain` in the .dtmc text format."""
    return (
        "# coin flip until the absorbing a-state\n"
        "states 2\n"
        "init 0\n"
        "label 1 a\n"
        "trans 0 0 1/2\n"
        "trans 0 1 1/2\n"
        "trans 1 1 1\n"
    )


def response_chain_text():
    """The four-state chain of CI's response query G (!a | F[<=x] b),
    on which V>0 and V=1 are empty and a pump certificate shows it."""
    return ("states 4\ninit 0\nlabel 0 a\nlabel 1 b\ntrans 0 3 1\n"
            "trans 1 0 3/7\ntrans 1 1 3/7\ntrans 1 3 1/7\n"
            "trans 2 0 1/3\ntrans 2 2 2/3\ntrans 3 1 3/7\n"
            "trans 3 2 3/7\ntrans 3 3 1/7\n")


def valuation_leq(a, b):
    """Pointwise order of two Valuations over the same names."""
    if a.names != b.names:
        raise ValuationError("valuations range over different variables")
    return all(a[n] <= b[n] for n in a.names)


def ergodicity_coefficient(q):
    """tau(Q) = 1 - min over row pairs of the sum of entrywise minima.

    Q must be substochastic with no zero row; the minimum ranges over all
    pairs including a row with itself, so tau <= 1 - min row sum.
    """
    n = len(q)
    if n == 0:
        raise ChainError("ergodicity coefficient of an empty matrix")
    for row in q:
        if all(v == 0 for v in row):
            raise ChainError("ergodicity coefficient undefined for a zero row")
    best = None
    for i in range(n):
        for j in range(i, n):
            overlap = sum((min(a, b) for a, b in zip(q[i], q[j])), Fraction(0))
            if best is None or overlap < best:
                best = overlap
    return 1 - best


def random_chain(rng, max_states=6, props=("a", "b"), label_p=0.4):
    """A random labeled chain with small-denominator exact probabilities."""
    m = rng.randint(1, max_states)
    rows = []
    for s in range(m):
        k = rng.randint(1, min(3, m))
        succs = rng.sample(range(m), k)
        weights = [rng.randint(1, 4) for _ in succs]
        total = sum(weights)
        rows.append({t: Fraction(w, total) for t, w in zip(succs, weights)})
    labels = [{p for p in props if rng.random() < label_p} for _ in range(m)]
    return MarkovChain(m, rng.randrange(m), rows, labels)


def random_fx_formula(rng, props=("a", "b"), depth=3, counter=None):
    """Random formula in the next/eventually fragment."""
    if counter is None:
        counter = [0]

    def lit():
        name = rng.choice(props)
        return Atom(name) if rng.random() < 0.7 else NegAtom(name)

    def build(d):
        roll = rng.random()
        if d <= 0 or roll < 0.25:
            return lit()
        if roll < 0.35:
            return Eventually(build(d - 1))
        if roll < 0.45:
            counter[0] += 1
            return BoundedEventually(VarBound("x%d" % counter[0]),
                                     build(d - 1))
        if roll < 0.6:
            return Next(build(d - 1))
        if roll < 0.8:
            return And(build(d - 1), build(d - 1))
        return Or(build(d - 1), build(d - 1))

    phi = build(depth)
    return phi


def random_diamond_formula(rng, props=("a", "b"), size_budget=4, counter=None):
    """Random bounded-eventually formula with a small node budget."""
    if counter is None:
        counter = [0]

    def lit():
        name = rng.choice(props)
        return Atom(name) if rng.random() < 0.7 else NegAtom(name)

    def build(budget):
        if budget <= 1 or rng.random() < 0.3:
            return lit()
        roll = rng.random()
        if roll < 0.45:
            counter[0] += 1
            return BoundedEventually(VarBound("x%d" % counter[0]),
                                     build(budget - 1))
        if roll < 0.6:
            return Next(build(budget - 1))
        half = (budget - 1) // 2 + 1
        if roll < 0.8:
            return And(build(half), build(half))
        return Or(build(half), build(half))

    return build(size_budget)


def nnf_formulas(max_leaves, names="xy", var_shapes=True):
    """Hypothesis strategy: NNF formulas over the atoms a, b with every
    node kind, variable bounds named by the letters of `names` and
    constant bounds 0..3.  With `var_shapes` a variable bound is also
    drawn over each binary shape, so that about half the formulas drawn
    at max_leaves=5 carry one (without, about one in seven)."""
    # Imported here so that modules without property tests run
    # without hypothesis installed.
    from hypothesis import strategies as st

    def extend(sub):
        const = st.builds(ConstBound, st.integers(0, 3))
        var = st.builds(VarBound, st.sampled_from(names))
        conj, disj, until = (st.builds(And, sub, sub), st.builds(Or, sub, sub),
                             st.builds(Until, sub, sub))
        plain = (st.builds(Next, sub) | st.builds(Eventually, sub)
                 | st.builds(Always, sub)
                 | st.builds(BoundedEventually, const | var, sub)
                 | st.builds(BoundedAlways, const, sub)
                 | conj | disj | until | st.builds(Release, sub, sub))
        if not var_shapes:
            return plain
        # Hypothesis merges equal branches, so a repeated branch would
        # not weight variables up; three distinct shapes do.
        return (plain | st.builds(BoundedEventually, var, conj)
                | st.builds(BoundedEventually, var, disj)
                | st.builds(BoundedEventually, var, until))

    literals = (st.builds(Atom, st.sampled_from("ab"))
                | st.builds(NegAtom, st.sampled_from("ab")))
    return st.recursive(literals, extend, max_leaves=max_leaves)


def random_nnf_formula(rng, max_leaves):
    """A seeded draw of the shapes `nnf_formulas(max_leaves,
    var_shapes=False)` draws: NNF formulas over the atoms a, b with
    every node kind, variable bounds x, y and constant bounds 0..3,
    with at most `max_leaves` literals and three operators on any
    path."""
    def build(leaves, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return rng.choice([Atom, NegAtom])(rng.choice("ab"))
        if leaves > 1 and roll < 0.6:
            return rng.choice([And, Or, Until, Release])(
                build(1, depth - 1), build(leaves - 1, depth - 1))
        op = rng.choice([Next, Eventually, Always, BoundedEventually,
                         BoundedAlways])
        child = build(leaves, depth - 1)
        if op is BoundedEventually and rng.random() < 0.5:
            return op(VarBound(rng.choice("xy")), child)
        if op in (BoundedEventually, BoundedAlways):
            return op(ConstBound(rng.randint(0, 3)), child)
        return op(child)

    return build(max_leaves, 3)


def fx_formulas(depth, top=3):
    """Hypothesis strategy: formulas of the next/eventually fragment over
    the atoms a, b, nested up to `depth` operators, with variable bounds
    x, y (shared between occurrences) and constant bounds 0..top.  A
    bound 1..top is drawn as often as a variable bound, and 0 as often
    again."""
    from hypothesis import strategies as st

    literals = (st.builds(Atom, st.sampled_from("ab"))
                | st.builds(NegAtom, st.sampled_from("ab")))
    if depth == 0:
        return literals
    sub = fx_formulas(depth - 1, top)
    bounded = [st.builds(BoundedEventually, bound, sub) for bound in (
        st.builds(VarBound, st.sampled_from("xy")),
        st.builds(ConstBound, st.integers(1, top)),
        st.just(ConstBound(0)))]
    return st.one_of(literals, *bounded, st.builds(Next, sub),
                     st.builds(Eventually, sub), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub))


def reference_first_hits(chain, props):
    """Minimal vectors of first-hit times of `props` over the finite paths
    from the initial state: the minimal valuations of
    F[<=x1] props[0] & F[<=x2] props[1] & ... at threshold >0.

    Brute force over (state, hit times so far) pairs, one path length at
    a time.  Between two first hits a minimal vector's path repeats no
    state, so no hit time of one exceeds len(props) * m.
    """
    def hit(s, t, hits):
        return tuple(t if h is None and p in chain.labels[s] else h
                     for h, p in zip(hits, props))

    layer = {(chain.init, hit(chain.init, 0, (None,) * len(props)))}
    complete = set()
    for t in range(1, len(props) * chain.m + 1):
        complete.update(h for _, h in layer if None not in h)
        layer = {(u, hit(u, t, h)) for s, h in layer if None in h
                 for u in chain.successors(s)}
    complete.update(h for _, h in layer if None not in h)
    return sorted(p for p in complete
                  if not any(q != p and all(a <= b for a, b in zip(q, p))
                             for q in complete))


def until_chain(k):
    """F[<=x] (a U (b U ...)) with k until operators, as text."""
    text = "abcdefghij"[k]
    for p in reversed("abcdefghij"[:k]):
        text = "(%s U %s)" % (p, text)
    return "F[<=x] " + text


def random_letters(rng, props, length):
    return tuple(frozenset(p for p in props if rng.random() < 0.5)
                 for _ in range(length))


def lasso_chain(word):
    """The chain of the lasso word stem + loop^omega: one state per
    position, labelled with its letter, and one successor each, the
    last loop position stepping back to the first.  Its one path is the
    word, so Pr(phi) > 0 on it exactly when the word satisfies phi."""
    letters = tuple(word.stem) + tuple(word.loop)
    m, wrap = len(letters), len(word.stem)
    rows = [{p + 1 if p + 1 < m else wrap: Fraction(1)} for p in range(m)]
    return MarkovChain(m, 0, rows, letters)


def reference_tableau(phi):
    """The tableau of an NNF formula, by brute force: every closure
    subset is tested for consistency and every ordered pair of states
    for an edge.  Every F[<=k] member has a parametric set of its own:
    the constant members' first, labelled by the member, then each
    variable's members in closure order, labelled by the variable.  A
    G[<=c] member gives a state without its child no edge.

    Returns a namespace with the attributes of `decoded_tableau`.  Only
    small closures are practical.
    """
    subs = closure(phi)
    names = atoms(phi)
    nonlits = [f for f in subs if not isinstance(f, (Atom, NegAtom))]
    states = []
    for amask in range(2 ** len(names)):
        literals = {Atom(a) if amask >> i & 1 else NegAtom(a)
                    for i, a in enumerate(names)}
        for tmask in range(2 ** len(nonlits)):
            h = literals | {f for i, f in enumerate(nonlits)
                            if tmask >> i & 1}
            if _consistent(h, subs):
                states.append(frozenset(h))
    # Membership as positional flags: hashing a formula walks its tree.
    pos = {f: i for i, f in enumerate(subs)}
    flags = [tuple(f in h for f in subs) for h in states]
    temporal = [(type(f), pos[f]) + tuple(pos[c] for c in children(f))
                for f in nonlits if not isinstance(f, (And, Or))]
    g = SimpleNamespace(
        formula=phi, states=states,
        letters=[frozenset(f.name for f in h if isinstance(f, Atom))
                 for h in states],
        initial=[i for i, h in enumerate(states) if phi in h],
        succ=[[j for j, h2 in enumerate(flags) if _edge_ok(h, h2, temporal)]
              for h in flags],
        acc_b=[], acc_p=[])
    for f in subs:
        member = None
        if isinstance(f, Until):
            member = lambda h, f=f: f not in h or f.right in h
        elif isinstance(f, Eventually):
            member = lambda h, f=f: f not in h or f.child in h
        elif isinstance(f, Release):
            member = lambda h, f=f: f.right not in h or f in h
        elif isinstance(f, Always):
            member = lambda h, f=f: f.child not in h or f in h
        if member is not None:
            g.acc_b.append((f, frozenset(i for i, h in enumerate(states)
                                         if member(h))))
    bounded = [f for f in subs if isinstance(f, BoundedEventually)]
    labelled = [(f, f) for f in bounded if isinstance(f.bound, ConstBound)]
    labelled += [(x, f) for x in variables(phi) for f in bounded
                 if f.bound == VarBound(x)]
    for label, f in labelled:
        g.acc_p.append((label, frozenset(i for i, h in enumerate(states)
                                         if f not in h or f.child in h)))
    return g


def reference_automaton_text(g):
    """`diamond.format_automaton`'s text for the brute-force tableau g."""
    lines = ["g-automaton states=%d" % len(g.states),
             "initial %s" % " ".join(map(str, g.initial))]
    lines += ["buchi [%s] %s" % (f, " ".join(map(str, sorted(members))))
              for f, members in g.acc_b]
    lines += ["parametric %s %s" % (x, " ".join(map(str, sorted(members))))
              for x, members in g.acc_p]
    lines += ["edge %d {%s} %d" % (q, ",".join(sorted(g.letters[q])), t)
              for q, targets in enumerate(g.succ) for t in targets]
    return "\n".join(lines) + "\n"


def decoded_tableau(g):
    """The tableau g of a `DiamondChecker` as `reference_tableau` holds
    it: each closure mask read back into the closure members it sets
    plus one literal per atom, and each acceptance condition into its
    label and the states it accepts."""
    states = [frozenset({f for f, b in g.bits.items() if h & b}.union(
        Atom(a) if a in letter else NegAtom(a) for a in g.names))
        for h, letter in zip(g.states, g.letters)]
    return SimpleNamespace(
        formula=g.formula, states=states, letters=g.letters,
        initial=g.initial, succ=g.succ, acc_b=_decoded_sets(g, g.acc_b),
        acc_p=_decoded_sets(g, g.acc_p))


def _decoded_sets(g, conditions):
    """(label, the states of g it accepts) per acceptance condition."""
    return [(label, frozenset(q for q, h in enumerate(g.states)
                              if accepts(h, pending, done)))
            for label, pending, done in conditions]


def _consistent(h, subs):
    for f in subs:
        if isinstance(f, And):
            if (f in h) != (f.left in h and f.right in h):
                return False
        elif isinstance(f, Or):
            if (f in h) != (f.left in h or f.right in h):
                return False
        elif isinstance(f, Until):
            if f.right in h and f not in h:
                return False
        elif isinstance(f, Release):
            if f.left in h and f.right in h and f not in h:
                return False
        elif isinstance(f, (Eventually, BoundedEventually)):
            if f.child in h and f not in h:
                return False
    return True


def _edge_ok(h, h2, temporal):
    """May a run step from state h to h2?  Both are positional flags;
    `temporal` lists (kind, own position, child positions)."""
    for kind, i, c, *r in temporal:
        now, later = h[i], h2[i]
        if kind is Next:
            if now != h2[c]:
                return False
        elif kind is Until:
            if now != (h[r[0]] or (h[c] and later)):
                return False
        elif kind is Release:
            if now != (h[r[0]] and (h[c] or later)):
                return False
        elif kind is Eventually:
            if now != (h[c] or later):
                return False
        elif kind is BoundedEventually:
            # One-directional: a pending bound must stay marked until
            # it is discharged.
            if now and not h[c] and not later:
                return False
        elif kind is Always:
            if now != (h[c] and later):
                return False
        elif kind is BoundedAlways:
            if now and not h[c]:
                return False
    return True


def _reference_round_robin(g):
    """The round-robin degeneralization of the tableau g: states (q, i)
    flattened to q * k + i, the index i moving to i + 1 mod k when a run
    leaves a state of the i-th of g's k Buchi sets, and one Buchi set,
    the first set at index 0 (every state at index 0 with no set)."""
    k = max(1, len(g.acc_b))
    n = len(g.states) * k
    sets = [f for _, f in g.acc_b] or [frozenset(range(len(g.states)))]
    succ = []
    for u in range(n):
        q, i = divmod(u, k)
        i2 = (i + 1) % k if q in sets[i] else i
        succ.append([q2 * k + i2 for q2 in g.succ[q]])
    return SimpleNamespace(
        k=k, initial=[q0 * k for q0 in g.initial], succ=succ,
        buchi={u for u in range(0, n, k) if u // k in sets[0]})


def reference_round_robin_holds(g, chain, threshold, bounds,
                                max_nodes=None):
    """Does the chain satisfy the formula of the brute-force tableau g
    (`reference_tableau`) at `bounds`, one per variable of g's `acc_p`,
    with probability > 0 ("pos") or 1 ("as1")?

    Decided on the product of the chain with g's round-robin
    degeneralization: nodes (chain state, state u, counters), a run's
    counters entered at zero, and an SCC accepting when it is cyclic and
    holds a node of the one Buchi set; plain subset sets as in
    `reference_holds`.  More than `max_nodes` product or subset nodes
    raise ResourceLimitError.
    """
    rr = _reference_round_robin(g)
    names = frozenset(atoms(g.formula))
    par = [tuple(q in f for _, f in g.acc_p) for q in range(len(g.states))]

    def entered(s, targets, counters):
        out = []
        for u in targets:
            q = u // rr.k
            if g.letters[q] != names & frozenset(chain.labels[s]):
                continue
            c = tuple(0 if f else c + 1 for f, c in zip(par[q], counters))
            if all(a <= b for a, b in zip(c, bounds)):
                out.append((s, u, c))
        return out

    nodes = entered(chain.init, rr.initial, (0,) * len(bounds))
    n_initial = len(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    succ = []
    for s, u, c in nodes:
        row = []
        for t in chain.successors(s):
            for node in entered(t, rr.succ[u], c):
                if node not in index:
                    if max_nodes is not None and len(nodes) >= max_nodes:
                        raise ResourceLimitError(
                            "reference product past %d nodes" % max_nodes)
                    index[node] = len(nodes)
                    nodes.append(node)
                row.append(index[node])
        succ.append(row)
    return _reference_verdict(
        chain, threshold, nodes, succ, n_initial,
        lambda comp: any(nodes[i][1] in rr.buchi for i in comp),
        max_nodes)[0]


def reference_reach_steps(chain, targets):
    """Yields Pr_s(reach `targets` within n steps) for n = 0, 1, 2, ...,
    by the Fraction recurrence x_s = 1 on targets, sum_t P(s,t) x_t
    elsewhere."""
    targets = set(targets)
    x = [Fraction(1) if s in targets else Fraction(0) for s in range(chain.m)]
    while True:
        yield x
        x = [Fraction(1) if s in targets
             else sum((p * x[t] for t, p in chain.rows[s].items()), Fraction(0))
             for s in range(chain.m)]


def reference_bounded_reach_vector(chain, targets, n):
    for i, x in enumerate(reference_reach_steps(chain, targets)):
        if i == n:
            return x


def reference_unbounded_reach_vector(chain, targets):
    """Pr_s(eventually reach `targets`) by dense Gauss-Jordan elimination
    over the states that reach the target."""
    targets = set(targets)
    reaching = set(targets)
    changed = True
    while changed:
        changed = False
        for s in range(chain.m):
            if s not in reaching and any(t in reaching
                                         for t in chain.rows[s]):
                reaching.add(s)
                changed = True
    unknowns = sorted(reaching - targets)
    col = {s: i for i, s in enumerate(unknowns)}
    k = len(unknowns)
    matrix = []
    for s in unknowns:
        row = [Fraction(0)] * (k + 1)
        row[col[s]] = Fraction(1)
        for t, p in chain.rows[s].items():
            if t in targets:
                row[k] += p
            elif t in col:
                row[col[t]] -= p
        matrix.append(row)
    for i in range(k):
        pivot = next(r for r in range(i, k) if matrix[r][i] != 0)
        matrix[i], matrix[pivot] = matrix[pivot], matrix[i]
        inv = 1 / matrix[i][i]
        matrix[i] = [v * inv for v in matrix[i]]
        for r in range(k):
            if r != i and matrix[r][i] != 0:
                f = matrix[r][i]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[i])]
    result = [Fraction(0)] * chain.m
    for s in targets:
        result[s] = Fraction(1)
    for s, i in col.items():
        result[s] = matrix[i][k]
    return result


def reference_min_val_geq(chain, name, p):
    """Least n with Pr(F[<=n] name) >= p, or None, for 0 < p < 1.

    Empty when the limit is below p, or equals p without being reached.
    The limit is reached only when no reachable cycle of non-target
    states can still reach the target; the paths into the target are
    then acyclic, so mu_m = mu_infinity for m states."""
    targets = chain.states_with(name)
    mu_inf = reference_unbounded_reach_vector(chain, targets)[chain.init]
    if mu_inf < p:
        return None
    if (mu_inf == p and reference_bounded_reach_vector(
            chain, targets, chain.m)[chain.init] < p):
        return None
    for n, x in enumerate(reference_reach_steps(chain, targets)):
        if x[chain.init] >= p:
            return n


def _reach_sets(chain):
    """reach[s]: the states s reaches in zero or more steps, by DFS."""
    reach = []
    for s in range(chain.m):
        seen = {s}
        stack = [s]
        while stack:
            for t in chain.rows[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    return reach


def _free_path_gap(chain, name, states):
    """Longest simple path of a-free states inside `states`, counted in
    states, by DFS from every a-free state; math.inf when a DFS closes
    an a-free cycle."""
    free = {s for s in states if name not in chain.labels[s]}

    def longest(s, path):
        best = len(path)
        for t in chain.rows[s]:
            if t in path:
                return math.inf
            if t in free:
                best = max(best, longest(t, path | {t}))
        return best

    return max((longest(s, {s}) for s in free), default=0)


def reference_min_val_pos_buchi(chain, name):
    """Least n with Pr(G F[<=n] name) > 0, or None.

    Bottom components by mutual reachability, gaps by DFS over a-free
    paths; then, for n = 0, 1, ..., a breadth-first search over
    (state, current a-free streak <= n) from the initial state for an
    a-state of a reachable bottom component whose gap is at most n."""
    reach = _reach_sets(chain)
    goals = {}
    for s in reach[chain.init]:
        if name in chain.labels[s] and all(s in reach[t] for t in reach[s]):
            goals[s] = _free_path_gap(chain, name, reach[s])
    start = (chain.init, 0 if name in chain.labels[chain.init] else 1)
    for n in range(chain.m + 1):
        seen = {start} if start[1] <= n else set()
        frontier = list(seen)
        while frontier:
            nxt = []
            for s, streak in frontier:
                if goals.get(s, math.inf) <= n:
                    return n
                for t in chain.rows[s]:
                    conf = (t, 0 if name in chain.labels[t] else streak + 1)
                    if conf[1] <= n and conf not in seen:
                        seen.add(conf)
                        nxt.append(conf)
            frontier = nxt
    return None


def reference_holds(checker, chain, threshold, bounds, max_nodes=None):
    """`DiamondChecker._holds` with its subset constructions over plain
    frozensets of product nodes, which keep every node alive: no
    least-counter reduction, and a bottom tracking component counts an
    accepting SCC when one of its sets meets it.  An SCC is accepting
    when it is cyclic and meets every Buchi and every parametric set of
    the tableau; with no `bounds` that reads the pair product as the
    formula with every F[<=x] read as F.

    The product comes from the checker, its SCCs from `reference_sccs`.
    Returns the verdict and, per completeness graph by the SCCs' least
    nodes and then per tracking graph, (what, its subset nodes
    (s, alive)), with None for the nodes
    where an empty image stopped the graph.  A subset graph past
    `max_nodes` nodes raises ResourceLimitError.
    """
    nodes, succ, n_initial = checker._product(chain, bounds)
    return _reference_verdict(
        chain, threshold, nodes, succ, n_initial,
        _meets_every_set(checker.g, nodes), max_nodes)


def _meets_every_set(g, nodes):
    """A test of whether product nodes `comp` meet each `acc_b` and
    `acc_p` set of the tableau g, as built so far."""
    sets = [f for _, f in _decoded_sets(g, g.acc_b + g.acc_p)]
    return lambda comp: all(any(nodes[i][1] in f for i in comp)
                            for f in sets)


def _reference_verdict(chain, threshold, nodes, succ, n_initial, accepting,
                       max_nodes):
    """`reference_holds` on the product (nodes, succ, n_initial), whose
    cyclic SCCs are accepting where `accepting(comp)` says so."""
    graphs = []
    good = set()
    for comp, cyclic, _ in reference_sccs(len(nodes), succ):
        if not cyclic or not accepting(comp):
            continue
        fiber = {}
        for i in comp:
            fiber.setdefault(nodes[i][0], set()).add(i)
        edges = {i: [j for j in succ[i] if j in comp] for i in comp}
        found = _reference_subset_graph(
            chain, nodes, edges,
            [(s, frozenset(fiber[s])) for s in sorted(fiber)], max_nodes)
        graphs.append(("completeness graph",
                       None if found is None else found[0]))
        if found is not None:
            good |= comp
    if threshold == "pos":
        return bool(good), graphs
    found = _reference_subset_graph(
        chain, nodes, succ, [(chain.init, frozenset(range(n_initial)))],
        max_nodes)
    graphs.append(("tracking graph", None if found is None else found[0]))
    if found is None:
        return False, graphs
    d_nodes, d_succ = found
    return all(any(d_nodes[i][1] & good for i in comp)
               for comp, _, bottom in reference_sccs(len(d_nodes), d_succ)
               if bottom), graphs


def reference_pump_kills(checker, chain, threshold, v):
    """Replay `checker.certificate`, the chain walks (pi, gamma) of the
    pump that settled its last query, on the counter product at the
    uniform valuation v: True when the runs die as it claims.

    The sets are plain sets of product nodes, stepped along pi gamma^n
    for n = (N0 + 1) (v + 2) rounds, enough for any pump.  "as1": the
    runs from the initial nodes die.  "pos": every cyclic accepting SCC
    K is incomplete: K cannot follow some chain step out of the chain
    states it visits, or some walk from one of those states kills every
    run inside K from K's nodes there.
    """
    nodes, succ, n_initial = checker._product(
        chain, [v] * len(checker.g.var_names))
    rounds = (len(checker._product(chain, [])[0]) + 1) * (v + 2)

    def dies(alive, inside, pi, gamma):
        word = list(pi) + list(gamma) * rounds
        if gamma and gamma[-1] != pi[-1]:
            raise AssertionError("gamma does not close at pi's end")
        for s, t in zip(word, word[1:]):
            if t not in chain.successors(s):
                raise AssertionError("%d -> %d is no chain step" % (s, t))
            alive = {j for i in alive for j in succ[i]
                     if nodes[j][0] == t and j in inside}
            if not alive:
                return True
        return not alive

    walks = checker.certificate
    if threshold == "as1":
        (pi, gamma), = walks
        return pi[0] == chain.init and dies(
            set(range(n_initial)), range(len(nodes)), pi, gamma)
    meets = _meets_every_set(checker.g, nodes)
    for comp, cyclic, _ in reference_sccs(len(nodes), succ):
        if not cyclic or not meets(comp):
            continue
        states = {nodes[i][0] for i in comp}
        if any(t not in states for s in states for t in chain.successors(s)):
            continue
        if not any(pi[0] in states and dies(
                {i for i in comp if nodes[i][0] == pi[0]}, comp, pi, gamma)
                for pi, gamma in walks):
            return False
    return True


def reference_sccs(n, succ):
    """The strongly connected components of the digraph on 0..n-1 with
    an edge v -> w for each w in succ[v], listed by their least vertex.
    Each is (members, cyclic, bottom): a frozenset, whether it holds a
    cycle (a self-loop counts), and whether no edge leaves it.

    Iterative Kosaraju: one depth-first pass lists the vertices as they
    finish; then, latest finished first, each vertex not yet placed
    collects the vertices that reach it over edges not yet placed.
    """
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
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
    placed = [False] * n
    out = []
    for root in reversed(order):
        if placed[root]:
            continue
        placed[root] = True
        members = [root]
        for v in members:
            for w in pred[v]:
                if not placed[w]:
                    placed[w] = True
                    members.append(w)
        comp = frozenset(members)
        out.append((comp,
                    len(comp) > 1 or any(v in succ[v] for v in comp),
                    all(w in comp for v in comp for w in succ[v])))
    return sorted(out, key=lambda c: min(c[0]))


def reference_least(nodes, alive):
    """The nodes (s, q, c) of `alive`, indices into the product's
    `nodes`, with no other node of `alive` at the same tableau state q
    and counters <= c pointwise."""
    by_u = {}
    for j in alive:
        by_u.setdefault(nodes[j][1], []).append(nodes[j][2])
    return frozenset(
        j for j in alive
        if not any(c != nodes[j][2]
                   and all(a <= b for a, b in zip(c, nodes[j][2]))
                   for c in by_u[nodes[j][1]]))


def _reference_subset_graph(chain, nodes, edges, start, max_nodes=None):
    """The subset graph reachable from `start`, as (nodes, successor
    index lists), or None when some node has an empty image.

    A node (s, alive) steps, for each chain successor t, to t and the
    `edges` successors of alive at t.  More than `max_nodes` nodes
    raise ResourceLimitError.
    """
    index = {n: i for i, n in enumerate(start)}
    found = list(start)
    succ = []
    for s, alive in found:
        row = []
        for t in chain.successors(s):
            image = frozenset(j for a in alive for j in edges[a]
                              if nodes[j][0] == t)
            if not image:
                return None
            if (t, image) not in index:
                if max_nodes is not None and len(found) >= max_nodes:
                    raise ResourceLimitError(
                        "reference subset graph past %d nodes" % max_nodes)
                index[t, image] = len(found)
                found.append((t, image))
            row.append(index[t, image])
        succ.append(row)
    return found, succ


def reference_parse_chain(text):
    """The .dtmc reader without memos: (m, init, rows, labels), with
    `rows[s]` the positive entries of state s's row as Fractions and
    `labels[s]` a frozenset, or ChainParseError with the reader's
    message.  Every literal is read by `Fraction(text)` and every row
    summed in Fractions; `_nat`, `_brief` and `_quote` read ids and
    spell the values in the messages as the reader does."""
    def fail(message, lineno=None):
        raise ChainParseError(message, lineno)

    def state(token, lineno):
        s = _nat(token)
        if s is None or s >= m:
            fail("unknown state id %s" % _quote(token), lineno)
        return s

    m = init = None
    rows, labels = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind == "states":
            if m is not None:
                fail("duplicate states declaration", lineno)
            if len(args) != 1 or _nat(args[0]) is None:
                fail("expected: states <m>", lineno)
            m = _nat(args[0])
            if m == 0:
                fail("state count must be positive", lineno)
        elif m is None:
            fail("states declaration must come first", lineno)
        elif kind == "init":
            if init is not None:
                fail("duplicate init declaration", lineno)
            if len(args) != 1 or _nat(args[0]) is None:
                fail("expected: init <id>", lineno)
            init = _nat(args[0])
            if init >= m:
                fail("unknown state id %d" % init, lineno)
        elif kind == "label":
            if len(args) < 2:
                fail("expected: label <id> <name>...", lineno)
            labels.setdefault(state(args[0], lineno), set()).update(args[1:])
        elif kind == "trans":
            if len(args) != 3:
                fail("expected: trans <from> <to> <p>", lineno)
            src, dst = state(args[0], lineno), state(args[1], lineno)
            literal = args[2]
            _, e, exponent = literal.lower().partition("e")
            try:
                huge = bool(e) and abs(int(exponent)) > _MAX_EXPONENT
                p = None if huge else Fraction(literal)
            except (ValueError, ZeroDivisionError):
                fail("bad probability %s" % _quote(literal), lineno)
            if huge:
                fail("probability exponent beyond %d in %s"
                     % (_MAX_EXPONENT, _quote(literal)), lineno)
            if dst in rows.setdefault(src, {}):
                fail("duplicate transition %d -> %d" % (src, dst), lineno)
            rows[src][dst] = p
        else:
            fail("unknown directive %s" % _quote(kind), lineno)
    if m is None:
        fail("missing states declaration")
    if init is None:
        fail("missing init declaration")
    clean = []
    for s in range(m):
        row = rows.get(s, {})
        for p in row.values():
            if p < 0 or p > 1:
                fail("state %d: probability %s out of [0,1]" % (s, _brief(p)))
        total = sum(row.values(), Fraction(0))
        if total != 1:
            fail("state %d: row sums to %s, not 1" % (s, _brief(total)))
        clean.append({t: p for t, p in row.items() if p > 0})
    return (m, init, clean,
            [frozenset(labels.get(s, ())) for s in range(m)])
