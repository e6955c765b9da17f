"""Finite discrete-time Markov chains with exact rational arithmetic.

Provides the chain data model, a line-oriented text parser, SCC/BSCC
decomposition, graph distances, and exact reachability probabilities.
Bounded ones step integer vectors against P scaled by the lcm D of its
denominators, so Pr(reach within n) = y_n / D**n with no gcd per step;
unbounded ones solve a sparse linear system by elimination on dict rows
with Markowitz pivoting.  Every probability returned is a
`fractions.Fraction`, so comparisons (= 1, > 0, >= p) are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ChainError(ValueError):
    pass


class ResourceLimitError(Exception):
    """A configured cap on states or work was exceeded; no verdict
    produced."""


# The most work one walk of `reach_steps` may do.  Step n costs the
# row entries stepped times the bits of the scale to the n, plus
# STEP_OVERHEAD per row entry, stepped state and target, and once per
# step.  So a walk to n costs about entries * n^2: either part alone
# reaches the cap in two to four seconds on a 2-core x86 machine, and
# n = 300 on a 200-state chain costs under a hundredth of it.
MAX_STEP_WORK = 2 * 10 ** 10
STEP_OVERHEAD = 4096


class ChainParseError(ChainError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class MarkovChain:
    """A chain (S, P, s0, L) with states 0..m-1.

    `rows[s]` maps each successor to its positive transition probability;
    every row sums to exactly 1.  `labels[s]` is a frozenset of
    proposition names.
    """

    def __init__(self, m, init, rows, labels):
        if m <= 0:
            raise ChainError("chain needs at least one state")
        if not 0 <= init < m:
            raise ChainError("initial state %d out of range" % init)
        if len(rows) != m or len(labels) != m:
            raise ChainError("rows/labels must cover all %d states" % m)
        self.m = m
        self.init = init
        self.rows = [_check_row(s, row, m) for s, row in enumerate(rows)]
        self.labels = [frozenset(l) for l in labels]

    def successors(self, s):
        return self.rows[s].keys()

    def states_with(self, name):
        """All states whose label set contains `name`."""
        return {s for s in range(self.m) if name in self.labels[s]}


def _check_row(s, row, m):
    """State s's row with its zero entries dropped; ChainError unless it
    is a distribution over 0..m-1.  The sum is kept on integers, as a
    numerator over the lcm of the denominators seen so far."""
    clean = {}
    total, scale = 0, 1
    for t, p in row.items():
        if not 0 <= t < m:
            raise ChainError("state %d: successor %d out of range" % (s, t))
        if not isinstance(p, Fraction):
            p = Fraction(p)
        num, den = p.numerator, p.denominator
        if not 0 <= num <= den:
            raise ChainError("state %d: probability %s out of [0,1]"
                             % (s, _brief(p)))
        if num:
            clean[t] = p
            if den != scale:
                lcm = math.lcm(scale, den)
                total, scale = total * (lcm // scale), lcm
            total += num * (scale // den)
    if total != scale:
        raise ChainError("state %d: row sums to %s, not 1"
                         % (s, _brief(Fraction(total, scale))))
    return clean


def _nat(text):
    """The natural number spelled in ASCII digits by `text`, else None."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


# The most digits an exponent literal may add to a probability: the cap
# CPython puts on the digits of an int read from text.  A literal such
# as 1e-100000000 would otherwise build a hundred-million-digit int.
_MAX_EXPONENT = 4300


def read_fraction(text):
    """`Fraction(text)`, or None when the literal's exponent passes
    `_MAX_EXPONENT`; ValueError or ZeroDivisionError when it is
    malformed."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > _MAX_EXPONENT:
        return None
    return Fraction(text)


def _probability(text, lineno):
    """The Fraction spelled by a probability literal of a trans line."""
    try:
        value = read_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ChainParseError("bad probability %s" % _quote(text), lineno)
    if value is None:
        raise ChainParseError("probability exponent beyond %d in %s"
                              % (_MAX_EXPONENT, _quote(text)), lineno)
    return value


def _quote(text, limit=40):
    """repr(text), cut to about `limit` characters for a message."""
    if len(text) > limit:
        return repr(text[:limit]) + "..."
    return repr(text)


def _brief(q):
    """The Fraction q as message text: exact when short, else to six
    significant digits."""
    if q.numerator.bit_length() + q.denominator.bit_length() <= 200:
        return str(q)
    # Imported here: only a malformed chain needs it, and every run of
    # the program imports this module.
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        return "about %s" % (decimal.Decimal(q.numerator)
                             / decimal.Decimal(q.denominator))


def parse_chain(text):
    """Parse the .dtmc text format into a MarkovChain.

    Lines: `states <m>`, `init <id>`, `label <id> <name>...`,
    `trans <from> <to> <p>` with <p> a "num/den" or decimal literal;
    a decimal may carry an exponent of at most 4300, as in 1e-3.
    '#' starts a comment.
    """
    m = init = None
    # Entries for the states, id tokens and literals the text mentions
    # only, so memory grows with the text, not with m.
    rows, labels, ids, probs = {}, {}, {}, {}

    def state(token, lineno):
        s = ids.get(token)
        if s is None:
            s = _nat(token)
            if s is None or s >= m:
                raise ChainParseError("unknown state id %s" % _quote(token),
                                      lineno)
            ids[token] = s
        return s

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "states":
            if m is not None:
                raise ChainParseError("duplicate states declaration", lineno)
            if len(parts) != 2 or _nat(parts[1]) is None:
                raise ChainParseError("expected: states <m>", lineno)
            m = _nat(parts[1])
            if m <= 0:
                raise ChainParseError("state count must be positive", lineno)
            continue
        if m is None:
            raise ChainParseError("states declaration must come first", lineno)
        if kind == "init":
            if init is not None:
                raise ChainParseError("duplicate init declaration", lineno)
            if len(parts) != 2 or _nat(parts[1]) is None:
                raise ChainParseError("expected: init <id>", lineno)
            init = _nat(parts[1])
            if init >= m:
                raise ChainParseError("unknown state id %d" % init, lineno)
        elif kind == "label":
            if len(parts) < 3:
                raise ChainParseError("expected: label <id> <name>...", lineno)
            s = state(parts[1], lineno)
            labels.setdefault(s, set()).update(parts[2:])
        elif kind == "trans":
            if len(parts) != 4:
                raise ChainParseError("expected: trans <from> <to> <p>", lineno)
            src, dst = state(parts[1], lineno), state(parts[2], lineno)
            p = probs.get(parts[3])
            if p is None:
                p = probs[parts[3]] = _probability(parts[3], lineno)
            row = rows.setdefault(src, {})
            if dst in row:
                raise ChainParseError("duplicate transition %d -> %d" % (src, dst),
                                      lineno)
            row[dst] = p
        else:
            raise ChainParseError("unknown directive %s" % _quote(kind),
                                  lineno)
    if m is None:
        raise ChainParseError("missing states declaration")
    if init is None:
        raise ChainParseError("missing init declaration")
    try:
        if len(rows) < m:
            # Some state has no transition: report the first bad row, as
            # MarkovChain would, without a row per declared state.
            gap = next(s for s in range(m) if s not in rows)
            for s in range(gap):
                _check_row(s, rows[s], m)
            raise ChainError("state %d: row sums to 0, not 1" % gap)
        return MarkovChain(m, init, [rows[s] for s in range(m)],
                           [labels.get(s, ()) for s in range(m)])
    except ChainError as exc:
        raise ChainParseError(str(exc))


class SccDecomposition:
    """SCCs of the support digraph, listed in topological order.

    `component_of[s]` is the index of the component containing s; edges in
    the condensation only go from lower to higher indices.
    """

    def __init__(self, components, component_of, condensation, has_cycle):
        self.components = components
        self.component_of = component_of
        self.condensation = condensation
        self.has_cycle = has_cycle

    def is_bottom(self, i):
        return not self.condensation[i]

    def bottom_components(self):
        return [i for i in range(len(self.components)) if self.is_bottom(i)]


def scc_decompose(chain):
    """Tarjan's algorithm, iterative to tolerate deep chains."""
    succ = [sorted(chain.successors(s)) for s in range(chain.m)]
    return _tarjan(chain.m, succ)


def _tarjan(n, succ):
    index = [None] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    component_of = [None] * n
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                lowlink[u] = min(lowlink[u], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    # Tarjan emits components in reverse topological order.
    components.reverse()
    for i, comp in enumerate(components):
        for s in comp:
            component_of[s] = i
    condensation = [set() for _ in components]
    has_cycle = [len(c) > 1 for c in components]
    for s in range(n):
        for t in succ[s]:
            if component_of[s] != component_of[t]:
                condensation[component_of[s]].add(component_of[t])
            elif s == t:
                has_cycle[component_of[s]] = True
    return SccDecomposition(components, component_of, condensation, has_cycle)


def dag_order(vertices, successors):
    """Reverse topological order of the subgraph induced by `vertices`.

    `successors(v)` lists the targets of v's edges; those outside
    `vertices` are ignored.  Every vertex comes after all of its
    successors.  Returns None when the subgraph has a cycle (a self-loop
    counts).
    """
    vertices = set(vertices)
    on_path = {}  # vertex -> True while on the DFS path, False once done
    order = []
    for root in sorted(vertices):
        if root in on_path:
            continue
        on_path[root] = True
        stack = [(root, iter(successors(root)))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                if w not in vertices:
                    continue
                if w not in on_path:
                    on_path[w] = True
                    stack.append((w, iter(successors(w))))
                    break
                if on_path[w]:
                    return None
            else:
                stack.pop()
                on_path[v] = False
                order.append(v)
    return order


def longest_runs(vertices, successors):
    """Per vertex v of the set `vertices`, the most vertices on a path
    from v inside the set, or None when the set holds a cycle (a
    self-loop counts).  `successors` is as for `dag_order`."""
    order = dag_order(vertices, successors)
    if order is None:
        return None
    runs = {}
    for v in order:
        runs[v] = 1 + max((runs[w] for w in successors(v) if w in vertices),
                          default=0)
    return runs


def reachable_states(chain, source=None, avoid=()):
    """Forward-reachable set from `source` (default: the initial state).

    Paths stop at states in `avoid`: those are reached but not left.
    """
    if source is None:
        source = chain.init
    seen = {source}
    frontier = [source]
    while frontier:
        s = frontier.pop()
        if s in avoid:
            continue
        for t in chain.successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def states_reaching(chain, targets):
    """All states with some path into `targets` (backward closure)."""
    pred = [set() for _ in range(chain.m)]
    for s in range(chain.m):
        for t in chain.successors(s):
            pred[t].add(s)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for s in pred[t]:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def distances_from(chain, source):
    """Unit-weight BFS distances from `source`; math.inf when unreachable."""
    dist = [math.inf] * chain.m
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for s in frontier:
            for t in chain.successors(s):
                if dist[t] > dist[s] + 1:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


def all_pairs_distance(chain):
    """Matrix of shortest path lengths over the support digraph."""
    return [distances_from(chain, s) for s in range(chain.m)]


def _step_work(n, work):
    if work > MAX_STEP_WORK:
        raise ResourceLimitError(
            "exact stepping to n = %d exceeds the stepping cap of %d work "
            "units" % (n, MAX_STEP_WORK))


def reach_steps(chain, targets, source=None, steps=None):
    """The bounded-reachability values for n = 0, 1, 2, ..., on integers.

    Yields (y, d) with d = D**n, where D is the lcm of the denominators
    in the rows stepped: Pr_s(reach `targets` within n steps) is
    y[s] / d.  Stepping multiplies and adds integers only, so no step
    normalises a fraction.  Without a `source` every state is stepped.
    With one, only the states that `source` reaches before a target
    are, since its probability depends on them alone; y is 0 at the
    other non-target states.  Each y is a new list, never changed.

    A walk past `MAX_STEP_WORK` raises ResourceLimitError at the step
    that passes it; given the number of `steps` the caller will take,
    before the first step when they would pass it.
    """
    targets = set(targets)
    if source is None:
        free = [s for s in range(chain.m) if s not in targets]
    else:
        free = sorted(reachable_states(chain, source, targets) - targets)
    scale = math.lcm(*(p.denominator for s in free
                       for p in chain.rows[s].values()))
    rows = [(s, [(t, p.numerator * (scale // p.denominator))
                 for t, p in chain.rows[s].items()]) for s in free]
    entries = sum(len(row) for _, row in rows)
    fixed = STEP_OVERHEAD * (1 + len(targets) + len(rows) + entries)
    # d = scale**n has at most n * (scale - 1).bit_length() + 1 bits.
    grow = entries * (scale - 1).bit_length()
    if steps is not None:
        _step_work(steps, steps * fixed + grow * steps * (steps + 1) // 2)
    y = [1 if s in targets else 0 for s in range(chain.m)]
    d = 1
    n = work = 0
    while True:
        yield y, d
        n += 1
        work += fixed + grow * n
        _step_work(n, work)
        d *= scale
        nxt = [0] * chain.m
        for t in targets:
            nxt[t] = d
        for s, row in rows:
            nxt[s] = sum([w * y[t] for t, w in row])
        y = nxt


def bounded_reach_vector(chain, targets, n):
    """Per-state probabilities of reaching `targets` within n steps."""
    y, d = _nth(reach_steps(chain, targets, steps=n), n)
    return [Fraction(v, d) for v in y]


def bounded_reach_prob(chain, targets, n):
    """Exact mu_n = Pr(reach `targets` within n steps) from the initial state."""
    if n < 0:
        raise ChainError("step bound must be a natural number")
    y, d = _nth(reach_steps(chain, targets, chain.init, n), n)
    return Fraction(y[chain.init], d)


def _nth(steps, n):
    for _ in range(n):
        next(steps)
    return next(steps)


def unbounded_reach_vector(chain, targets):
    """Per-state probabilities of eventually reaching `targets`.

    States that cannot reach the target get 0; for the rest the sparse
    system x_s - sum_t P(s,t) x_t = P(s, targets) is solved exactly.
    """
    targets = set(targets)
    unknowns = states_reaching(chain, targets) - targets
    rows, rhs = {}, {}
    for s in sorted(unknowns):
        row = {s: Fraction(1)}
        b = Fraction(0)
        for t, p in chain.rows[s].items():
            if t in targets:
                b += p
            elif t in unknowns:
                row[t] = row.get(t, 0) - p
        rows[s], rhs[s] = row, b
    result = [Fraction(0)] * chain.m
    for s in targets:
        result[s] = Fraction(1)
    for s, v in _solve(rows, rhs).items():
        result[s] = v
    return result


def unbounded_reach_prob(chain, targets):
    return unbounded_reach_vector(chain, targets)[chain.init]


def _solve(rows, rhs):
    """Solve sum_c rows[v][c] x_c = rhs[v] for every unknown v, exactly.

    `rows` maps each unknown to its sparse row, which holds its own
    diagonal entry.  Each step eliminates the unknown whose row and
    column have the fewest other entries (Markowitz, 1957), pivoting on
    the diagonal.  A reachability system with its 0-states removed is
    a nonsingular M-matrix, and so is every Schur complement of it, so
    no diagonal pivot vanishes.  Both arguments are consumed.
    """
    cols = {v: set() for v in rows}
    for v, row in rows.items():
        for c in row:
            cols[c].add(v)
    eliminated = []
    while rows:
        v = min(rows, key=lambda u: (len(rows[u]) - 1) * (len(cols[u]) - 1))
        row = rows.pop(v)
        inv = 1 / row.pop(v)
        row = {c: a * inv for c, a in row.items()}
        b = rhs.pop(v) * inv
        for c in row:
            cols[c].discard(v)
        for r in cols.pop(v) - {v}:
            other = rows[r]
            f = other.pop(v)
            for c, a in row.items():
                value = other.get(c, 0) - f * a
                if value:
                    other[c] = value
                    cols[c].add(r)
                else:
                    other.pop(c, None)
                    cols[c].discard(r)
            rhs[r] -= f * b
        eliminated.append((v, row, b))
    x = {}
    for v, row, b in reversed(eliminated):
        x[v] = b - sum((a * x[c] for c, a in row.items()), Fraction(0))
    return x


def transient_matrix(chain, targets):
    """Restriction of P to non-target states, plus the exit vector.

    Returns (states, Q, r): `states` lists the non-target states in order,
    `Q[i][j]` is the probability of moving between them, and `r[i]` the
    one-step probability of entering the (collapsed) target.
    """
    targets = set(targets)
    states = [s for s in range(chain.m) if s not in targets]
    pos = {s: i for i, s in enumerate(states)}
    q = [[Fraction(0)] * len(states) for _ in states]
    r = [Fraction(0)] * len(states)
    for s in states:
        for t, p in chain.rows[s].items():
            if t in targets:
                r[pos[s]] += p
            else:
                q[pos[s]][pos[t]] += p
    return states, q, r
