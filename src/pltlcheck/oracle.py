"""Independent validation tools: prefix/lasso evaluation and sampling.

Everything here avoids the automata pipeline on purpose: the prefix and
lasso evaluators work directly off the semantics, and the sampler only
certifies what a finite prefix already decides.  The 3-SAT fixture
generator produces chain/formula pairs whose emptiness verdict is known
from propositional satisfiability.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .formula import (
    And, Atom, Always, BoundedAlways, BoundedEventually, Eventually,
    FormulaError, NegAtom, Next, Or, Release, Until, VarBound, fold,
)
from .markov import MarkovChain

CERTAIN_TRUE = "certainly-true"
CERTAIN_FALSE = "certainly-false"
UNKNOWN = "unknown"

# Letters one `sample` run may draw, samples times horizon: a run at the
# cap takes a few seconds and holds one horizon-long prefix at a time.
MAX_SAMPLE_LETTERS = 10 ** 6


class OracleInputError(ValueError):
    """Malformed input to an oracle: a lasso, a sampling horizon or a CNF."""


class LassoWord:
    """The ultimately periodic word stem + loop repeated forever."""

    __slots__ = ("stem", "loop")

    def __init__(self, stem, loop):
        if not loop:
            raise OracleInputError("lasso loop must be nonempty")
        self.stem = stem
        self.loop = loop

    def __eq__(self, other):
        if type(other) is not LassoWord:
            return NotImplemented
        return (self.stem, self.loop) == (other.stem, other.loop)

    def __hash__(self):
        return hash((self.stem, self.loop))

    def __repr__(self):
        return "LassoWord(stem=%r, loop=%r)" % (self.stem, self.loop)


def _not3(v):
    if v == UNKNOWN:
        return UNKNOWN
    return CERTAIN_FALSE if v == CERTAIN_TRUE else CERTAIN_TRUE


def _and3(a, b):
    if a == CERTAIN_FALSE or b == CERTAIN_FALSE:
        return CERTAIN_FALSE
    if a == CERTAIN_TRUE and b == CERTAIN_TRUE:
        return CERTAIN_TRUE
    return UNKNOWN


def _or3(a, b):
    return _not3(_and3(_not3(a), _not3(b)))


def eval_prefix(prefix, phi):
    """Three-valued verdict of a variable-free NNF formula on a prefix.

    certainly-true / certainly-false mean every / no infinite extension
    of the prefix satisfies the formula.  Each subformula gets a table
    of verdicts per position, children first, filled from the last
    position back, so no call nests once per position; past the prefix
    every verdict is unknown.
    """
    prefix = [frozenset(p) for p in prefix]
    if not prefix:
        return UNKNOWN
    return fold(phi, lambda f, kids: _prefix_table(f, kids, prefix))[0]


def _prefix_table(f, kids, prefix):
    """f's verdicts at positions 0..n of the prefix, the last one past
    its end, from its children's tables."""
    n = len(prefix)
    if isinstance(f, (Atom, NegAtom)):
        hit = CERTAIN_TRUE if isinstance(f, Atom) else CERTAIN_FALSE
        miss = _not3(hit)
        return [hit if f.name in p else miss for p in prefix] + [UNKNOWN]
    if isinstance(f, (And, Or)):
        op = _and3 if isinstance(f, And) else _or3
        return [op(a, b) for a, b in zip(*kids)]
    if isinstance(f, Next):
        return kids[0][1:] + [UNKNOWN]
    if isinstance(f, (BoundedEventually, BoundedAlways)):
        return _window(kids[0], _const(f),
                       CERTAIN_TRUE if isinstance(f, BoundedEventually)
                       else CERTAIN_FALSE)
    # U, R, F and G unfold one step: f = now op1 (hold op2 f at i + 1).
    if isinstance(f, Until):
        hold, now, op1, op2 = kids[0], kids[1], _or3, _and3
    elif isinstance(f, Release):
        hold, now, op1, op2 = kids[0], kids[1], _and3, _or3
    elif isinstance(f, Eventually):
        hold, now, op1, op2 = None, kids[0], _or3, _and3
    elif isinstance(f, Always):
        hold, now, op1, op2 = None, kids[0], _and3, _or3
    else:
        raise FormulaError("unsupported node %r" % (f,))
    out = [UNKNOWN] * (n + 1)
    for i in range(n - 1, -1, -1):
        later = out[i + 1] if hold is None else op2(hold[i], out[i + 1])
        out[i] = op1(now[i], later)
    return out


def _window(child, c, decisive):
    """F[<=c] (decisive certainly-true) or G[<=c] (certainly-false) of
    a child's table: decisive when the child is somewhere in the window
    i..i+c, unknown when some position there is unknown or the window
    runs past the prefix, else the other verdict."""
    n = len(child) - 1
    other = _not3(decisive)
    out = [UNKNOWN] * (n + 1)
    next_hit = next_open = n + 1
    for i in range(n - 1, -1, -1):
        if child[i] == decisive:
            next_hit = i
        elif child[i] == UNKNOWN:
            next_open = i
        last = i + c
        if next_hit <= min(last, n - 1):
            out[i] = decisive
        elif last >= n or next_open <= last:
            out[i] = UNKNOWN
        else:
            out[i] = other
    return out


def _const(f):
    if isinstance(f.bound, VarBound):
        raise FormulaError("formula must be variable-free; substitute first")
    return f.bound.value


def eval_lasso(word, phi):
    """Exact verdict of a variable-free NNF formula on stem + loop^omega.

    Each subformula gets a table over the finitely many positions of the
    lasso graph, children first, so no call nests per nesting level;
    until/eventually use least fixpoints, release/always greatest
    fixpoints, and a bounded operator compares its bound with each
    position's distance to the next position where its child holds
    (or fails, for G[<=c]).
    """
    stem = [frozenset(p) for p in word.stem]
    loop = [frozenset(p) for p in word.loop]
    letters = stem + loop
    n = len(letters)
    succ = list(range(1, n)) + [len(stem)]

    def table(f, kids):
        if isinstance(f, Atom):
            return [f.name in l for l in letters]
        if isinstance(f, NegAtom):
            return [f.name not in l for l in letters]
        if isinstance(f, And):
            return [x and y for x, y in zip(*kids)]
        if isinstance(f, Or):
            return [x or y for x, y in zip(*kids)]
        if isinstance(f, Next):
            return [kids[0][succ[i]] for i in range(n)]
        if isinstance(f, Until):
            return _lfp(*kids)
        if isinstance(f, Eventually):
            return _lfp([True] * n, kids[0])
        if isinstance(f, Release):
            return _gfp(*kids)
        if isinstance(f, Always):
            return _gfp([False] * n, kids[0])
        if isinstance(f, BoundedEventually):
            c = _const(f)
            return [d <= c for d in _distances(kids[0])]
        if isinstance(f, BoundedAlways):
            c = _const(f)
            return [d > c for d in _distances([not x for x in kids[0]])]
        raise FormulaError("unsupported node %r" % (f,))

    def _lfp(hold, target):
        out = [False] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                v = target[i] or (hold[i] and out[succ[i]])
                if v and not out[i]:
                    out[i] = True
                    changed = True
        return out

    def _gfp(release, target):
        out = [True] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                v = target[i] and (release[i] or out[succ[i]])
                if not v and out[i]:
                    out[i] = False
                    changed = True
        return out

    def _distances(a):
        """Per position, the steps to the next position where `a` holds
        (infinite if none).  The first backward pass is exact on the
        stem and at the loop's entry; the second carries the entry's
        distance round the rest of the loop."""
        out = [math.inf] * n
        for i in [*range(n - 1, -1, -1), *range(n - 1, len(stem), -1)]:
            out[i] = 0 if a[i] else out[succ[i]] + 1
        return out

    return fold(phi, table)[0]


def sample_lower_bound(chain, phi, samples, horizon, seed):
    """Fraction of sampled prefixes on which the formula is certainly true.

    One-sided: a positive fraction proves the satisfaction probability
    is positive, a zero fraction proves nothing.  `phi` must be
    variable-free.  Deterministic for a fixed seed (Mersenne Twister via
    random.Random).
    """
    if horizon < 1:
        raise OracleInputError("horizon must be at least 1")
    if samples < 1:
        raise OracleInputError("samples must be at least 1")
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        s = chain.init
        prefix = [chain.labels[s]]
        for _ in range(horizon - 1):
            u = rng.random()
            acc = 0.0
            nxt = None
            for t in sorted(chain.successors(s)):
                acc += float(chain.rows[s][t])
                nxt = t
                if u < acc:
                    break
            s = nxt
            prefix.append(chain.labels[s])
        if eval_prefix(prefix, phi) == CERTAIN_TRUE:
            hits += 1
    return Fraction(hits, samples)


def gen_3sat_fixture(clauses, n_vars):
    """Chain and formula encoding a CNF so that satisfiability matches
    nonemptiness of the positive-probability valuation set.

    `clauses` is a list of lists of nonzero signed ints (DIMACS style).
    The chain walks variable gadgets in order, committing each variable
    to true or false with probability 1/2; clause labels sit on the
    committed literal states and the formula asks every clause label to
    be seen within a parametric bound.
    """
    if n_vars < 1:
        raise OracleInputError("need at least one variable")
    if not clauses:
        raise OracleInputError("need at least one clause")
    for cl in clauses:
        for lit in cl:
            if lit == 0 or abs(lit) > n_vars:
                raise OracleInputError("literal %d out of range" % lit)
    half = Fraction(1, 2)
    m = 3 * n_vars + 1
    pos = lambda i: n_vars + i          # state for t_i, 1-based i
    neg = lambda i: 2 * n_vars + i      # state for not t_i
    rows = [dict() for _ in range(m)]
    labels = [set() for _ in range(m)]
    for i in range(n_vars):
        rows[i][pos(i + 1)] = half
        rows[i][neg(i + 1)] = half
    for i in range(1, n_vars + 1):
        rows[pos(i)][i] = Fraction(1)
        rows[neg(i)][i] = Fraction(1)
    rows[n_vars][n_vars] = Fraction(1)
    for ci, cl in enumerate(clauses, start=1):
        name = "c%d" % ci
        for lit in cl:
            labels[pos(lit) if lit > 0 else neg(-lit)].add(name)
    chain = MarkovChain(m, 0, rows, labels)
    phi = None
    for ci in range(1, len(clauses) + 1):
        conj = BoundedEventually(VarBound("y%d" % ci), Atom("c%d" % ci))
        phi = conj if phi is None else And(phi, conj)
    return chain, phi


def sat_brute_force(clauses, n_vars):
    """Plain 2^n satisfiability scan for validating the fixture."""
    for mask in range(2 ** n_vars):
        ok = True
        for cl in clauses:
            if not any((lit > 0) == bool(mask >> (abs(lit) - 1) & 1)
                       for lit in cl):
                ok = False
                break
        if ok:
            return True
    return False


def parse_dimacs(text):
    """Parse a DIMACS-like CNF: 'p cnf <vars> <clauses>' then clause lines."""
    n_vars = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise OracleInputError("bad DIMACS header %r" % line)
            n_vars = _dimacs_int(parts[2])
            continue
        for tok in line.split():
            lit = _dimacs_int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if n_vars is None:
        raise OracleInputError("missing DIMACS header")
    return clauses, n_vars


def _dimacs_int(tok):
    try:
        return int(tok)
    except ValueError:
        raise OracleInputError("bad DIMACS number %r" % tok)
