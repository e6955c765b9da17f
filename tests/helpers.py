"""Seeded random generators and brute-force references shared by the
test modules."""

import random
from fractions import Fraction
from types import SimpleNamespace

from pltlcheck.diamond import ResourceLimitError
from pltlcheck.formula import (
    Always, And, Atom, BoundedAlways, BoundedEventually, ConstBound,
    Eventually, NegAtom, Next, Or, Release, Until, VarBound, atoms, children,
    closure, variables,
)
from pltlcheck.markov import (
    _MAX_EXPONENT, ChainError, ChainParseError, MarkovChain, _brief, _nat,
    _quote, _tarjan,
)
from pltlcheck.valuation import ValuationError


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


def fx_formulas(depth):
    """Hypothesis strategy: formulas of the next/eventually fragment over
    the atoms a, b, nested up to `depth` operators, with variable bounds
    x, y (shared between occurrences) and constant bounds 0..3."""
    from hypothesis import strategies as st

    literals = (st.builds(Atom, st.sampled_from("ab"))
                | st.builds(NegAtom, st.sampled_from("ab")))
    if depth == 0:
        return literals
    sub = fx_formulas(depth - 1)
    bound = (st.builds(VarBound, st.sampled_from("xy"))
             | st.builds(ConstBound, st.integers(0, 3)))
    return (literals | st.builds(BoundedEventually, bound, sub)
            | st.builds(Next, sub) | st.builds(Eventually, sub)
            | st.builds(And, sub, sub) | st.builds(Or, sub, sub))


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


def reference_tableau(phi):
    """The G- and U-automata of a constant-free NNF formula, by brute
    force: every closure subset is tested for consistency and every
    ordered pair of states for an edge.

    Returns two namespaces with the attributes `format_automaton` reads;
    the U one lists its successors in `succ` and `successors(u)`, and
    like `UAutomaton` answers `letter(u)` and `is_buchi(u)` by call and
    holds one tuple of parametric flags per g-state in `par`.  Only
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
    by_var = {f.bound.name: f for f in subs
              if isinstance(f, BoundedEventually)}
    for x in variables(phi):
        f = by_var[x]
        g.acc_p.append((x, frozenset(i for i, h in enumerate(states)
                                     if f not in h or f.child in h)))
    return g, _reference_round_robin(g)


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
    return True


def _reference_round_robin(g):
    k = max(1, len(g.acc_b))
    n_g = len(g.states)
    n = n_g * k
    sets = [f for _, f in g.acc_b] or [frozenset(range(n_g))]
    succ = []
    for u in range(n):
        q, i = divmod(u, k)
        i2 = (i + 1) % k if q in sets[i] else i
        succ.append([q2 * k + i2 for q2 in g.succ[q]])
    return SimpleNamespace(
        n=n, k=k, initial=[q0 * k for q0 in g.initial],
        letter=[g.letters[u // k] for u in range(n)].__getitem__,
        is_buchi=[u % k == 0 and u // k in sets[0]
                  for u in range(n)].__getitem__,
        var_names=[x for x, _ in g.acc_p],
        par=[tuple(q in f for _, f in g.acc_p) for q in range(n_g)],
        succ=succ, successors=succ.__getitem__)


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


def reference_holds(checker, chain, threshold, u_aut, bounds,
                    max_nodes=None):
    """`DiamondChecker._holds` with its subset constructions over plain
    frozensets of product nodes, which keep every node alive: no
    least-counter reduction, and a bottom tracking component counts an
    accepting SCC when one of its sets meets it.

    The product and its SCCs come from the checker.  Returns the verdict
    and, per completeness graph in SCC order and then per tracking
    graph, (what, its subset nodes (s, alive)), with None for the nodes
    where an empty image stopped the graph.  A subset graph past
    `max_nodes` nodes raises ResourceLimitError.
    """
    nodes, succ, n_initial = checker._product(chain, u_aut, bounds)
    scc = _tarjan(len(nodes), succ)
    graphs = []
    good = set()
    for ci, comp in enumerate(scc.components):
        if not scc.has_cycle[ci]:
            continue
        if not any(u_aut.is_buchi(nodes[i][1]) for i in comp):
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
    scc = _tarjan(len(d_nodes), d_succ)
    return all(any(d_nodes[i][1] & good for i in scc.components[ci])
               for ci in scc.bottom_components()), graphs


def reference_least(nodes, alive):
    """The nodes (s, u, c) of `alive`, indices into the product's
    `nodes`, with no other node of `alive` at the same U-state and
    counters <= c pointwise."""
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
