"""Finite discrete-time Markov chains with exact rational arithmetic.

Provides the chain data model, a line-oriented text parser, SCC/BSCC
decomposition, graph distances, and exact reachability probabilities.
Bounded ones step integer vectors against P scaled by the lcm D of its
denominators, so Pr(reach within n) = y_n / D**n with no gcd per step;
the states are numbered into slots once per walk, all targets in one,
and each group of rows of one width is stepped by one generated
comprehension, or past `MAX_KERNEL_WIDTH` by one plain one.  Unbounded
ones fix the states of value 0 and 1 by graph analysis and solve a
sparse linear system over the rest by elimination on dict rows with
Markowitz pivoting.  Every probability returned is a
`fractions.Fraction`, so comparisons (= 1, > 0, >= p) are exact.

`_check_row` decides whether a row is a distribution.  `MarkovChain`
runs it on every row it is given.  `parse_chain` runs it once per
distinct row of the text, since rows that spell a distribution alike
share the reader's Fraction objects, and builds the chain from the
checked rows without a second check.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul


class ChainError(ValueError):
    pass


class ResourceLimitError(Exception):
    """A configured cap on states or work was exceeded; no verdict
    produced."""


# The most work one walk of `reach_steps` may do.  Step n costs the
# row entries stepped times the bits of the scale to the n, plus
# STEP_OVERHEAD per row entry, stepped state and target, and once per
# step.  So a walk to n costs about entries * n^2.  On a 2-core x86
# machine the growing part reaches the cap in about two seconds (the
# coin chain to n = 131,000), the fixed part alone in about a tenth of
# one (a deterministic 1,000-state ring, whose numbers never grow, to
# n = 2,438), and n = 300 from the initial state of a 200-state chain
# costs under a hundredth of it.
MAX_STEP_WORK = 2 * 10 ** 10
STEP_OVERHEAD = 4096
# The widest rows `_kernel` generates a step for.  Generating one costs
# about 70 us plus 6 us per entry, all 16 about 2 ms (x86-64, Python
# 3.11); for a row of 20,000 entries it took 0.3-0.5 s, more than a
# hundred steps of that row.  Wider rows are stepped by `_step_wide`.
MAX_KERNEL_WIDTH = 16


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

    @classmethod
    def _of_checked(cls, m, init, rows, labels):
        """A chain from parts already checked: `rows[s]` as `_check_row`
        returns it, `labels[s]` a frozenset."""
        chain = cls.__new__(cls)
        chain.m, chain.init, chain.rows, chain.labels = m, init, rows, labels
        return chain

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
    '#' starts a comment.  The first line that is not blank must
    declare the states.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    first = next((i for i, line in enumerate(lines) if line.split()), None)
    if first is None:
        raise ChainParseError("missing states declaration")
    parts = lines[first].split()
    if parts[0] != "states":
        raise ChainParseError("states declaration must come first", first + 1)
    if len(parts) != 2 or _nat(parts[1]) is None:
        raise ChainParseError("expected: states <m>", first + 1)
    m = _nat(parts[1])
    if m <= 0:
        raise ChainParseError("state count must be positive", first + 1)
    init = None
    # Entries for the states and literals the text mentions only, so
    # memory grows with the text, not with m.  Each literal is read
    # once, so rows that spell a distribution alike share its Fraction
    # objects.  `ids` starts with the plain spelling of the first ids,
    # one per line at most.
    rows, labels, probs = {}, {}, {}
    ids = {str(s): s for s in range(min(m, len(lines)))}

    def state(token, lineno):
        s = ids.get(token)
        if s is None:
            s = _nat(token)
            if s is None or s >= m:
                raise ChainParseError("unknown state id %s" % _quote(token),
                                      lineno)
            ids[token] = s
        return s

    for lineno, parts in enumerate(map(str.split, lines[first + 1:]),
                                   start=first + 2):
        if len(parts) == 4 and parts[0] == "trans":
            src = ids.get(parts[1])
            if src is None:
                src = state(parts[1], lineno)
            dst = ids.get(parts[2])
            if dst is None:
                dst = state(parts[2], lineno)
            p = probs.get(parts[3])
            if p is None:
                p = probs[parts[3]] = _probability(parts[3], lineno)
            row = rows.get(src)
            if row is None:
                row = rows[src] = {}
            elif dst in row:
                raise ChainParseError("duplicate transition %d -> %d"
                                      % (src, dst), lineno)
            row[dst] = p
            continue
        if not parts:
            continue
        kind = parts[0]
        if kind == "label":
            if len(parts) < 3:
                raise ChainParseError("expected: label <id> <name>...", lineno)
            s = state(parts[1], lineno)
            labels.setdefault(s, set()).update(parts[2:])
        elif kind == "init":
            if init is not None:
                raise ChainParseError("duplicate init declaration", lineno)
            if len(parts) != 2 or _nat(parts[1]) is None:
                raise ChainParseError("expected: init <id>", lineno)
            init = _nat(parts[1])
            if init >= m:
                raise ChainParseError("unknown state id %d" % init, lineno)
        elif kind == "trans":
            raise ChainParseError("expected: trans <from> <to> <p>", lineno)
        elif kind == "states":
            raise ChainParseError("duplicate states declaration", lineno)
        else:
            raise ChainParseError("unknown directive %s" % _quote(kind),
                                  lineno)
    if init is None:
        raise ChainParseError("missing init declaration")
    rows = _checked_rows(m, rows)
    label_sets = [frozenset()] * m
    for s, names in labels.items():
        label_sets[s] = frozenset(names)
    return MarkovChain._of_checked(m, init, rows, label_sets)


def _checked_rows(m, rows):
    """The rows of states 0..m-1, from the reader's entries; each
    distinct row is checked once by `_check_row`, in state order, so
    the first bad state is the one reported.  Two rows are alike when
    they hold the same value objects in the same order: those live in
    the reader's literal memo for the whole check."""
    checked = set()
    out = []
    try:
        for s in range(m):
            row = rows.get(s)
            if row is None:
                # Stops at the first state without a transition, so no
                # list is built past the rows the text holds.
                raise ChainError("state %d: row sums to 0, not 1" % s)
            key = tuple(map(id, row.values()))
            if key not in checked:
                clean = _check_row(s, row, m)
                if len(clean) < len(row):
                    row = clean
                else:
                    checked.add(key)
            out.append(row)
    except ChainError as exc:
        raise ChainParseError(str(exc))
    return out


class SccDecomposition:
    """SCCs of the support digraph, listed in topological order.

    `component_of[s]` is the index of the component containing s; edges
    between components only go from lower to higher indices.
    `bottom[i]` says that no edge leaves component i, and `has_cycle[i]`
    that it holds a cycle (a self-loop counts).
    """

    def __init__(self, components, component_of, bottom, has_cycle):
        self.components = components
        self.component_of = component_of
        self.bottom = bottom
        self.has_cycle = has_cycle

    def bottom_components(self):
        return [i for i, b in enumerate(self.bottom) if b]


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
    has_cycle = [len(c) > 1 for c in components]
    bottom = [True] * len(components)
    for s in range(n):
        for t in succ[s]:
            if component_of[s] != component_of[t]:
                bottom[component_of[s]] = False
            elif s == t:
                has_cycle[component_of[s]] = True
    return SccDecomposition(components, component_of, bottom, has_cycle)


def longest_run(vertices, successors):
    """The most vertices on a path inside the set `vertices`: 0 when it
    is empty, None when it holds a cycle (a self-loop counts).

    `successors(v)` lists the targets of v's edges; those outside
    `vertices` are ignored.  One iterative depth-first pass: a vertex's
    run is fixed when the search leaves it, one more than the best run
    among its successors, and an edge to a vertex still on the search
    path closes a cycle.
    """
    runs = {}  # vertex -> None while on the search path, then its run
    longest = 0
    for root in vertices:
        if root in runs:
            continue
        runs[root] = None
        stack = [[root, iter(successors(root)), 0]]
        while stack:
            top = stack[-1]
            for w in top[1]:
                if w not in vertices:
                    continue
                if w not in runs:
                    runs[w] = None
                    stack.append([w, iter(successors(w)), 0])
                    break
                run = runs[w]
                if run is None:
                    return None
                if run > top[2]:
                    top[2] = run
            else:
                stack.pop()
                run = runs[top[0]] = top[2] + 1
                if stack and run > stack[-1][2]:
                    stack[-1][2] = run
                if run > longest:
                    longest = run
    return longest


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


def states_reaching(chain, targets, avoid=()):
    """All states with some path into `targets` (backward closure).

    The states in `avoid` are left out, so a path enters none of them
    before it reaches a target.
    """
    if not targets:
        return set()
    pred = [[] for _ in range(chain.m)]
    for s, row in enumerate(chain.rows):
        for t in row:
            pred[t].append(s)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for s in pred[t]:
            if s not in seen and s not in avoid:
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

    Returns (slot, walk).  `walk` yields (y, d) with d = D**n, where D is
    the lcm of the denominators in the rows stepped: Pr_s(reach
    `targets` within n steps) is y[slot[s]] / d.  Stepping multiplies
    and adds integers only, so no step normalises a fraction.  Without
    a `source` every state is stepped.  With one, only the states that
    `source` reaches before a target are, since its probability depends
    on them alone; `slot` maps the targets and the stepped states, and
    every other state has value 0.  Each y is a new list, never changed.

    All targets share slot 0, whose value is d.  The stepped states
    follow, grouped by the width of their row once its target entries
    are merged into one, and each group is stepped by one comprehension
    from `_kernel`, so no step makes a Python call per narrow row.

    A walk past `MAX_STEP_WORK` raises ResourceLimitError at the step
    that passes it; given the number of `steps` the caller will take,
    here, before the walk starts, when they would pass it.  The work
    counts every row entry, merged or not.
    """
    targets = set(targets)
    if source is None:
        free = [s for s in range(chain.m) if s not in targets]
    else:
        free = sorted(reachable_states(chain, source, targets) - targets)
    scale = math.lcm(*(p.denominator for s in free
                       for p in chain.rows[s].values()))
    entries = sum(len(chain.rows[s]) for s in free)
    fixed = STEP_OVERHEAD * (1 + len(targets) + len(free) + entries)
    # d = scale**n has at most n * (scale - 1).bit_length() + 1 bits.
    grow = entries * (scale - 1).bit_length()
    if steps is not None:
        _step_work(steps, steps * fixed + grow * steps * (steps + 1) // 2)
    # Each stepped row as {successor: integer weight}, its targets
    # merged under the key None.
    merged = []
    for s in free:
        row = {}
        for t, p in chain.rows[s].items():
            if t in targets:
                t = None
            row[t] = row.get(t, 0) + p.numerator * (scale // p.denominator)
        merged.append((len(row), s, row))
    merged.sort(key=itemgetter(0))
    slot = dict.fromkeys(targets, 0)
    slot.update((s, i) for i, (_, s, _) in enumerate(merged, 1))
    groups = []
    for width, group in itertools.groupby(merged, itemgetter(0)):
        # A successor is a target (key None, slot 0) or a stepped state.
        rows = [tuple(v for t, w in row.items() for v in (slot.get(t, 0), w))
                for _, _, row in group]
        groups.append((_kernel(width) if width <= MAX_KERNEL_WIDTH
                       else _step_wide, rows))

    def walk():
        y = [1] + [0] * len(merged)
        d = 1
        n = work = 0
        while True:
            yield y, d
            n += 1
            work += fixed + grow * n
            _step_work(n, work)
            d *= scale
            nxt = [d]
            for kernel, rows in groups:
                nxt += kernel(y, rows)
            y = nxt

    return slot, walk()


@functools.cache
def _kernel(width):
    """The step of rows of `width` entries: y, rows -> one value per row,
    its weights times the y of its slots, where a row is the flat tuple
    (slot, weight, slot, weight, ...).  Generated once per width seen in
    the process, as `collections.namedtuple` generates its methods, for
    widths up to `MAX_KERNEL_WIDTH`."""
    total = " + ".join("w%d * y[i%d]" % (j, j) for j in range(width))
    names = ", ".join("i%d, w%d" % (j, j) for j in range(width))
    return eval("lambda y, rows: [%s for %s in rows]" % (total, names))


def _step_wide(y, rows):
    """The step `_kernel(width)` returns, for rows of any width, with no
    code generated."""
    return [sum(map(mul, row[1::2], map(y.__getitem__, row[::2])))
            for row in rows]


def bounded_reach_vector(chain, targets, n):
    """Per-state probabilities of reaching `targets` within n steps."""
    slot, walk = reach_steps(chain, targets, steps=n)
    y, d = _nth(walk, n)
    return [Fraction(y[slot[s]], d) for s in range(chain.m)]


def bounded_reach_prob(chain, targets, n):
    """Exact mu_n = Pr(reach `targets` within n steps) from the initial state.

    A walk to n past `MAX_STEP_WORK` steps only to `settling_step`
    when that is below n, since mu stays constant from there on.
    """
    if n < 0:
        raise ChainError("step bound must be a natural number")
    try:
        slot, walk = reach_steps(chain, targets, chain.init, n)
    except ResourceLimitError:
        # Raised before the walk starts, so no work is lost.
        last = settling_step(chain, targets, chain.init)
        if last is None or last >= n:
            raise
        n = last
        slot, walk = reach_steps(chain, targets, chain.init, n)
    y, d = _nth(walk, n)
    return Fraction(y[slot[chain.init]], d)


def settling_step(chain, targets, source):
    """A step n from which Pr_source(reach `targets` within n) stays
    constant, or None when none is known.  It is the most states on a
    path from the source through the non-target states that reach a
    target, or None when those states hold a cycle: a path into a
    target is never longer than that.  That region is empty, so the
    step is 0, when the source is a target or reaches none."""
    targets = set(targets)
    region = ((reachable_states(chain, source, targets) - targets)
              & states_reaching(chain, targets))
    # Each region state is reached from the source through the region,
    # so the longest run through the region starts at the source.
    return longest_run(region, chain.successors)


def _nth(steps, n):
    for _ in range(n):
        next(steps)
    return next(steps)


def unbounded_reach_vector(chain, targets):
    """Per-state probabilities of eventually reaching `targets`.

    Graph analysis fixes the states whose value is 0 or 1 before any
    arithmetic (Baier and Katoen, 2008, section 10.1): 0 where no path
    reaches a target, 1 where no path reaches such a 0-state before a
    target.  The sparse system x_s - sum_t P(s,t) x_t = P(s, to a target
    or 1-state) is solved exactly over the states left, those strictly
    between 0 and 1; when every bottom component holds a target there
    are none.
    """
    targets = set(targets)
    reaching = states_reaching(chain, targets)
    zero = set(range(chain.m)) - reaching
    unknowns = states_reaching(chain, zero, avoid=targets) - zero
    rows, rhs = {}, {}
    for s in sorted(unknowns):
        row = {s: Fraction(1)}
        b = Fraction(0)
        for t, p in chain.rows[s].items():
            if t in unknowns:
                row[t] = row.get(t, 0) - p
            elif t in reaching:
                b += p
        rows[s], rhs[s] = row, b
    result = [Fraction(0)] * chain.m
    one = Fraction(1)
    for s in reaching:
        result[s] = one
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
    the diagonal.  A reachability system with its 0- and 1-states
    removed is a nonsingular M-matrix, and so is every Schur complement
    of it, so no diagonal pivot vanishes.  Nor does any entry: the
    pivot row's off-diagonal entries are negative, so an update takes
    a positive f * a off each entry, and an off-diagonal one stays
    negative, a diagonal one positive.  Both arguments are consumed.
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
                other[c] = other.get(c, 0) - f * a
                cols[c].add(r)
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
