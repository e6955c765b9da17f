"""General checker for parametric formulas with bounded-eventually.

The pipeline follows the tableau route: consistent subsets of the
formula closure give an unambiguous generalized automaton, and counters
enforce the bounds, a variable's at a concrete valuation and a
constant's as written, never unfolded.  Qualitative verdicts against a
chain come from SCC analysis of the synchronous product, with
generalized acceptance read SCC by SCC: a positive probability needs a
reachable complete SCC that meets every acceptance set, and probability
one additionally needs every bottom behavior of the chain to be covered
by one.

The tableau is built from local constraints (Gerth, Peled, Vardi and
Wolper, 1995), one atom mask at a time, the first time a product reads
that mask: one children-first pass over the closure yields the mask's
states, and one (mask, value) constraint on closure bits per state
picks its successors in each mask.  A product derives a state's
successors from those when it first asks for them, filtered by the
letter the chain reads next, so a query pays for the letters it reads.

Every product is with a chain, built by one routine (`_product`) and
explored lazily from the initial configurations, so only the reachable
part is ever materialized.  A single word needs no path of its own: a
lasso word is the chain with one successor per position, on which
Pr(phi) > 0 exactly when the word satisfies phi.

Completeness of a product SCC and the almost-sure tracking are subset
constructions over the product, run by one routine (`_least_subsets`):
a subset node is a chain state with the product nodes alive there, and
it steps along each chain transition to the image of those nodes, taken
from the product's successor lists.  Completeness restricts images to
its SCC; tracking does not.  Both keep only the least-counter nodes of
each set: per tableau state, those whose counters are Pareto-minimal
(counter subsumption; Abdulla, Chen, Holik, Mayr and Vojnar, 2010).  A
plain set at the witness bound holds every counter value; a least one,
a few nodes per tableau state.  `_complete` and `_holds` prove the
reduction exact.  A probability-one query builds the tracking graph
first, and checks completeness only when it does not die, and only for
the accepting SCCs with a node at or above a node of a bottom
component's sets.

Emptiness is decided in three steps over one automaton and one product
without the variables' counters, the pair product.  The NNF formula is
monotone in its bounds, so phi[v] implies phi with every F[<=x] read as
F (Kupferman, Piterman and Vardi, 2009).  The pair product asks that
formula first, with each variable's parametric set as one more condition
on its accepting SCCs: probability zero proves V>0 empty, and below one
proves V=1 empty.  When that does not decide, the same product counts N0
and looks for a pump certificate (below), and only without one does the
product at the uniform witness bound run.  All three steps are exact.

The witness bound, and the top of the valuation search's box, is the
paper's vbar = m * |phi| * 2^|phi|, a pigeonhole count over (chain
state, tableau state) pairs.  N0, the pair product's size, is asked
first where a true answer settles the query: V is upward closed, so the
uniform point at N0 in V proves V nonempty, and with one variable it
bounds the search box at N0.  A false answer at N0 proves nothing, since
no proof yet shows that N0 can replace vbar (`_witness_bound`).  The
query then asks the pump (`_pump`) on the same pair product: a loop of
chain steps along which every run of the counter product, at every
valuation, goes ever longer without resetting some counter, so the runs
die and V is empty.  That is the limitedness question of distance
automata (Hashiguchi, 1982), checked on single loops, the first level of
a stabilisation (Kirsten, 2005).  Only without a certificate does the
query go on at vbar.  Products at N0 are far smaller: 3 to 8 pairs
against 640 for G (!a | F[<=x] b) on four-state chains.
"""

from __future__ import annotations

from .formula import (
    And, Always, Atom, BoundedAlways, BoundedEventually, Eventually,
    FragmentError, NegAtom, Next, Not, Or, Release, Until, atoms, children,
    closure, rename_apart, size, subformulas, to_nnf, variables,
)
from . import markov
from .markov import ResourceLimitError
from .valuation import MinimalSet, _leq, bisection_min_set


class TableauLimitError(ResourceLimitError):
    """An atom mask's block passed `MAX_TABLEAU_STATES`.  Every product
    reading that mask would build it again, so no caller falls through
    on it."""


DEFAULT_MAX_PRODUCT_NODES = 10 ** 7
MAX_CLOSURE = 22  # atoms plus non-literal closure members
# Tableau states built for the letters the chains emit; every free X, G,
# U, R or F member can double them per atom mask.
MAX_TABLEAU_STATES = 2 ** 14
# (subset node, transfer relation) states one query's pump search may
# build, over every loop and fibre it tries.
PUMP_BUDGET = 5000


class GAutomaton:
    """Generalized automaton over consistent closure subsets: a tableau,
    built one atom mask at a time.

    A state is its closure mask: bit `bits[f]` is set where closure
    member f holds.  As in Gerth, Peled, Vardi and Wolper (1995),
    states and edges come from local constraints; no closure subset and
    no pair of states is ever tested.  `block(a)` builds the states of
    atom mask a (bit i for `names[i]`) the first time a product asks for
    it, and states are numbered in the order they are built.  `full()`
    builds every mask in mask order, which orders states by (atom mask,
    operator mask).

    States: for each atom mask, one children-first pass over the
    closure.  An And or Or member is fixed by its children; an Until,
    Release, F or F[<=k] member is forced in when its discharge holds
    (the right side; both sides; the child) and free otherwise; X, G and
    G[<=c] members are always free.  A mask's states are sorted by
    operator bits.

    Edges: a state's temporal members fix some closure bits of every
    successor: X its child, U/R/F/G themselves unless discharged here,
    F[<=k] itself while pending.  They may also leave no successor at
    all, as G[<=c] does without its child.  That is one (mask, value)
    pair per state, `wants[q]`; `targets(want, a)` lists the states of
    mask a that meet it.

    `acc_b` holds one acceptance condition per until/release-like
    subformula, `acc_p` one per F[<=k] member, the constants' first
    (labelled by the member, bounded by `const_bounds`), then the
    variables' in the formula's variable order: (label, pending bit,
    done bit), whose set holds the states that `accepts`; `par[q]` is
    state q's flags in the `acc_p` sets.  `always` holds (bit, child
    bit, c) per G[<=c] member (`_always_step`).  `par`, `initial` and
    `succ` cover the states built so far.  The letter of a state is its
    set of positive atoms: every atom of the formula is decided in every
    state.
    """

    def __init__(self, phi):
        for f in subformulas(phi):
            if isinstance(f, Not):
                raise FragmentError("unsupported node %r" % (f,))
            if isinstance(f, BoundedAlways) and f.bound.value > MAX_CLOSURE:
                raise ResourceLimitError("G bound too large: G[<=%d] above %d"
                                         % (f.bound.value, MAX_CLOSURE))
        subs = closure(phi)
        names = atoms(phi)
        nonlits = [f for f in subs if not isinstance(f, (Atom, NegAtom))]
        if len(names) + len(nonlits) > MAX_CLOSURE:
            raise ResourceLimitError("closure too large: %d atoms, %d operators"
                                     % (len(names), len(nonlits)))
        self.formula = phi
        self.names = names
        # Operators take the low bits, in closure order, so that sorting
        # one atom mask's states sorts them by operator mask.
        bit = {f: 1 << i for i, f in enumerate(nonlits)}
        lits = [f for f in subs if isinstance(f, (Atom, NegAtom))]
        bit.update((f, 1 << (len(nonlits) + i)) for i, f in enumerate(lits))
        self.bits = bit
        # Each atom's (positive, negative) literal bits; 0 off the closure.
        self._literals = [(bit.get(Atom(a), 0), bit.get(NegAtom(a), 0))
                          for a in names]
        self._top = bit[phi]
        self._rules = [(bit[f],) + _local_rule(f, bit) for f in nonlits]
        # A unary operator's child is both its first and its last.
        self._steps = [(type(f), bit[f], bit[children(f)[0]],
                        bit[children(f)[-1]])
                       for f in nonlits if not isinstance(f, (And, Or))]
        self.acc_b = []
        for f in subs:
            if isinstance(f, (Until, Eventually)):
                self.acc_b.append((f, bit[f], bit[children(f)[-1]]))
            elif isinstance(f, (Release, Always)):
                self.acc_b.append((f, bit[children(f)[-1]], bit[f]))
        by_label = {getattr(f.bound, "name", f): f for f in subs
                    if isinstance(f, BoundedEventually)}
        consts = [f for f in by_label if isinstance(f, BoundedEventually)]
        self.var_names = variables(phi)
        self.const_bounds = [f.bound.value for f in consts]
        self.acc_p = [(k, bit[by_label[k]], bit[by_label[k].child])
                      for k in consts + self.var_names]
        self.always = [(bit[f], bit[f.child], f.bound.value) for f in subs
                       if isinstance(f, BoundedAlways)]
        self.states, self.letters, self.wants = [], [], []
        self.par, self.initial = [], []
        self._blocks = {}
        self._rows = {}

    def block(self, amask):
        """Atom mask `amask`'s states as (ids, initial ids, buckets),
        built the first time it is asked for.  `buckets` maps a
        constraint mask to that mask's bits -> the states showing them."""
        blk = self._blocks.get(amask)
        if blk is not None:
            return blk
        found = [sum(pos if amask >> i & 1 else neg
                     for i, (pos, neg) in enumerate(self._literals))]
        for b, need, forced, free in self._rules:
            if forced is all:
                found = [h | b if h & need == need else h for h in found]
            elif forced is any:
                found = [h | b if h & need else h for h in found]
            if free:
                found += [h | b for h in found if not h & b]
                if len(self.states) + len(found) > MAX_TABLEAU_STATES:
                    raise TableauLimitError(
                        "tableau too large: more than %d states"
                        % MAX_TABLEAU_STATES)
        found.sort()
        letter = frozenset(a for i, a in enumerate(self.names)
                           if amask >> i & 1)
        ids = range(len(self.states), len(self.states) + len(found))
        self.states += found
        self.letters += [letter] * len(found)
        self.wants += [_successor_constraint(h, self._steps) for h in found]
        self.par += [tuple(accepts(h, pending, done)
                           for _, pending, done in self.acc_p)
                     for h in found]
        initial = [q for q, h in zip(ids, found) if h & self._top]
        self.initial += initial
        blk = self._blocks[amask] = ids, initial, {}
        return blk

    def full(self):
        """This tableau with every atom mask built in mask order: itself
        when it was built in that order so far, else a fresh one."""
        g = self
        if any(a != i for i, a in enumerate(self._blocks)):
            g = GAutomaton(self.formula)
        for amask in range(2 ** len(self.names)):
            g.block(amask)
        return g

    def targets(self, want, amask):
        """The states of atom mask `amask` meeting the successor
        constraint `want`, in state order; a block's states are bucketed
        once per constraint mask."""
        if want is None:
            return ()
        mask, value = want
        ids, _, buckets = self.block(amask)
        by_value = buckets.get(mask)
        if by_value is None:
            by_value = buckets[mask] = {}
            for q in ids:
                by_value.setdefault(self.states[q] & mask, []).append(q)
        return by_value.get(value, ())

    def reading(self, q, amask):
        """State q's successors of atom mask `amask`, in state order."""
        return list(self.targets(self.wants[q], amask))

    def row(self, amask):
        """A cache for the successors of each state reading `amask`,
        indexed by state and as long as `n`; None where unfilled."""
        row = self._rows.setdefault(amask, [])
        row += [None] * (self.n - len(row))
        return row

    @property
    def n(self):
        return len(self.states)

    @property
    def succ(self):
        """Each state's successors among the states built so far."""
        return [sorted(t for a in self._blocks for t in self.targets(w, a))
                for w in self.wants]

    def atom_mask(self, letter):
        """The atom mask of a letter, a set of atom names."""
        return sum(1 << i for i, a in enumerate(self.names) if a in letter)


def accepts(h, pending, done):
    """Is state mask h in the acceptance set of the condition (label,
    `pending`, `done`): its pending bit off or its done bit on?"""
    return not h & pending or bool(h & done)


def _always_step(h, counters, always, nxt):
    """Enter state mask h: append to `nxt`, the F[<=k] counters entered,
    the (r, w) counters of each G[<=c] member (bit, child bit, c) of
    `always`, which follow those in `counters`.  False when the run dies.

    r counts the further positions that still owe the child: c where
    the member holds, else one less, down to 0.  w is the age of the
    oldest open claim that the child fails within c positions: a claim
    opens where the member is left out while the child holds, and all
    close where it fails.  A run dies entering a state without the child
    while r > 0, when w passes c, or when it asserts the member while a
    claim is open.  With the tableau's rule, the member holds exactly
    where G[<=c] does, and for both counters smaller is better.
    """
    rest = counters[len(nxt):]
    for (member, child, c), r, w in zip(always, rest[::2], rest[1::2]):
        claim = h & child and not h & member
        if r and not h & child or w and h & member or claim and w >= c:
            return False
        nxt += (c if h & member else max(r - 1, 0), w + 1 if claim else 0)
    return True


def _local_rule(f, bit):
    """How state search decides member f from its children's bits:
    (need, forced, free).  `forced` is `all` or `any` when f is in as
    soon as all or any of the `need` bits are, and None when it never
    is; `free` says whether f may also be in otherwise."""
    if isinstance(f, (And, Or)):
        forced = all if isinstance(f, And) else any
        return bit[f.left] | bit[f.right], forced, False
    if isinstance(f, Until):
        return bit[f.right], all, True
    if isinstance(f, Release):
        return bit[f.left] | bit[f.right], all, True
    if isinstance(f, (Eventually, BoundedEventually)):
        return bit[f.child], all, True
    return 0, None, True


def _successor_constraint(h, steps):
    """The (mask, value) every successor of state h shows on its closure
    bits, or None when h has no successor.

    A discharged U, R or F is in h by the state rules and asks nothing
    of the successor.
    """
    mask = value = 0
    for kind, b, left, right in steps:
        now = bool(h & b)
        if kind is Next:
            target, want = right, now
        elif kind is Until:
            if h & right:
                continue
            if not h & left:
                if now:
                    return None
                continue
            target, want = b, now
        elif kind is Release:
            if not h & right:
                if now:
                    return None
                continue
            if h & left:
                continue
            target, want = b, now
        elif kind is Eventually:
            if h & right:
                continue
            target, want = b, now
        elif kind is Always:
            if not h & right:
                if now:
                    return None
                continue
            target, want = b, now
        elif kind is BoundedAlways:
            if now and not h & right:
                return None
            continue
        else:
            # F[<=k] is one-directional: a pending bound keeps
            # propagating until it is discharged, and the product
            # counters kill any streak that outlives the bound.  A
            # successor may carry the mark unasked; such runs only ever
            # under-approximate, which is harmless because the formula
            # is positive in its bounds.
            if not now or h & right:
                continue
            target, want = b, True
        if mask & target:
            if bool(value & target) != want:
                return None
        else:
            mask |= target
            if want:
                value |= target
    return mask, value


def _within_cap(fn, *args):
    """fn(*args), or None when a graph it builds passes its node cap.  A
    tableau past its cap is raised: every later product would build it
    again."""
    try:
        return fn(*args)
    except TableauLimitError:
        raise
    except ResourceLimitError:
        return None


def _pumps(x, relation, full):
    """Does no cyclic SCC of the graph on the nodes `x`, with an edge
    a -> y per relation entry (a, y, m), have every bit of `full` in the
    union of its edges' masks m?"""
    index = {a: n for n, a in enumerate(x)}
    edges = [[] for _ in index]
    for a, y, _ in relation:
        edges[index[a]].append(index[y])
    scc = markov._tarjan(len(index), edges)
    masks = {}
    for a, y, m in relation:
        c = scc.component_of[index[a]]
        if c == scc.component_of[index[y]]:
            masks[c] = masks.get(c, 0) | m
    return full not in masks.values()


def format_automaton(g):
    """Plain-text adjacency dump of a tableau, from its `full()`: the
    text numbers states by (atom mask, operator mask) whichever masks
    were built before."""
    g = g.full()
    lines = ["g-automaton states=%d" % len(g.states),
             "initial %s" % " ".join(map(str, g.initial))]
    for form, conditions in (("buchi [%s] ", g.acc_b),
                             ("parametric %s ", g.acc_p)):
        for label, pending, done in conditions:
            lines.append(form % (label,) + " ".join(
                str(q) for q, h in enumerate(g.states)
                if accepts(h, pending, done)))
    for q, targets in enumerate(g.succ):
        for t in targets:
            lines.append("edge %d {%s} %d"
                         % (q, ",".join(sorted(g.letters[q])), t))
    return "\n".join(lines) + "\n"


class DiamondChecker:
    """Qualitative membership checks for one formula across valuations.

    One tableau serves every query, and grows by the atom masks each
    query's chain emits; each query explores the product with the chain
    lazily.  Valuations are given over the formula's original
    variable names; repeated names are renamed apart internally and the
    shared bound is applied to every occurrence.

    `shortcut` names the step that decided the last emptiness query
    or valuation search without the witness-bound product: the
    counter-free check ("counter-free") or a pump certificate
    ("pump"), or is None.  `bound_used` is the uniform bound at which
    the last emptiness query was decided, or the box top of the last
    valuation search; None when one of those steps decided, and for a
    formula without parameters.
    `certificate` holds the pump's chain walks when it decided (see
    `_pump`), else None.
    """

    def __init__(self, phi, max_product_nodes=DEFAULT_MAX_PRODUCT_NODES):
        nnf = to_nnf(phi)
        self.base_size = size(nnf)
        renamed, self.fresh_to_user = rename_apart(nnf)
        self.user_names = variables(phi)
        self.max_product_nodes = max_product_nodes
        self.g = GAutomaton(renamed)
        # Only an alias: the benchmark's tracer (perfbench/spans.py)
        # reads the automaton size as `u.n`.
        self.u = self.g
        self.stats = {"product_nodes": 0, "queries": 0}
        self.shortcut = None
        self.bound_used = None
        self.certificate = None

    def _bounds(self, valuation):
        """The bound of each tableau variable at `valuation`, a
        `Valuation` or a dict over the user's variable names."""
        bounds = []
        for fresh in self.g.var_names:
            user = self.fresh_to_user[fresh]
            if user not in valuation:
                raise FragmentError("valuation misses variable %r" % user)
            bounds.append(valuation[user])
        return bounds

    def _explore(self, initial, successors, what):
        """Graph reachable from `initial` as (nodes, successor index lists).

        Nodes are numbered in discovery order, the initial ones first.
        Returns None as soon as `successors(node)` does; more than
        max_product_nodes nodes raise ResourceLimitError naming `what`.
        """
        index = {n: i for i, n in enumerate(initial)}
        nodes = list(initial)
        succ = [None] * len(nodes)
        stack = list(range(len(nodes)))
        while stack:
            i = stack.pop()
            targets = successors(nodes[i])
            if targets is None:
                return None
            row = []
            for n in targets:
                j = index.get(n)
                if j is None:
                    j = index[n] = len(nodes)
                    nodes.append(n)
                    succ.append(None)
                    if len(nodes) > self.max_product_nodes:
                        raise ResourceLimitError(
                            "%s exceeds %d nodes"
                            % (what, self.max_product_nodes))
                    stack.append(j)
                row.append(j)
            succ[i] = row
        return nodes, succ

    def _product(self, chain, bounds):
        """Reachable product of the tableau `self.g` with the chain, as
        (nodes, succ, number of initial nodes); a node is (chain state,
        tableau state, counters).  The product builds the tableau's
        block of each state's atom mask, and its nodes count in
        `stats["product_nodes"]`.

        The counters are one per F[<=c] member, bounded by c, one per
        variable, bounded by `bounds` (none in the pair product), and
        two per G[<=c] member (`_always_step`).  An F[<=k] counter is
        the length of the current marked-but-unsatisfied streak of its
        bounded eventuality; a run dies the moment a streak would exceed
        the bound.  A run's first state is entered with every counter at
        zero.
        """
        g, par, steps = self.g, self.g.par, chain.successors
        states, always = g.states, g.always
        bounds = g.const_bounds + list(bounds)
        amasks = [g.atom_mask(l) for l in chain.labels]
        # Every block is built before the rows are sized.  rows[s][q]:
        # the successors of q that read s's letter, each with its
        # parametric flags.
        blocks = [g.block(a) for a in amasks]
        rows = [g.row(a) for a in amasks]

        def flagged(targets):
            return [(q2, par[q2]) for q2 in targets]

        def moves(s, targets, counters):
            out = []
            for q2, marks in targets:
                nxt = []
                for mark, c, v in zip(marks, counters, bounds):
                    c = 0 if mark else c + 1
                    if c > v:
                        break
                    nxt.append(c)
                else:
                    if not always or _always_step(states[q2], counters,
                                                  always, nxt):
                        out.append((s, q2, tuple(nxt)))
            return out

        initial = moves(chain.init, flagged(blocks[chain.init][1]),
                        (0,) * (len(bounds) + 2 * len(always)))

        def successors(node):
            s, q, counters = node
            out = []
            for t in steps(s):
                targets = rows[t][q]
                if targets is None:
                    targets = rows[t][q] = flagged(g.reading(q, amasks[t]))
                out += moves(t, targets, counters)
            return out

        nodes, succ = self._explore(initial, successors, "product")
        self.stats["product_nodes"] += len(nodes)
        return nodes, succ, len(initial)

    def _least_subsets(self, chain, nodes, succ, start, inside, what,
                       pump=False):
        """The subset construction over the product, on least-counter
        sets: the graph of subset nodes (chain state s, a set of node
        indices at s) reachable from `start`, as `_explore` returns it,
        or None when some image is empty.  With `pump`, an empty image
        is a subset node like any other, and every set is kept whole.

        A subset node (s, X) steps, for each chain successor t of s, to
        (t, least(img_t(X))), where img_t(X) holds the successors at t
        of X's nodes: only those in the set `inside`, unless it is
        None.  least(Y) keeps, per tableau state q, only the nodes
        (t, q, c) of Y whose counter vector c is Pareto-minimal among
        Y's nodes with that q.  The start sets are reduced too.
        """
        steps = chain.successors

        def least(found):
            """least(X) of the node indices `found`, all at one chain
            state, as a frozenset."""
            if pump:
                return frozenset(found)
            fronts = {}
            for j in found:
                _, q, c = nodes[j]
                front = fronts.get(q)
                if front is None:
                    fronts[q] = [j]
                elif not any(_leq(nodes[k][2], c) for k in front):
                    front[:] = [k for k in front
                                if not _leq(c, nodes[k][2])] + [j]
            return frozenset(j for front in fronts.values() for j in front)

        def successors(node):
            s, alive = node
            reached = set()
            for i in alive:
                reached.update(succ[i])
            if inside is not None:
                reached &= inside
            images = {}
            for j in reached:
                images.setdefault(nodes[j][0], []).append(j)
            out = []
            for t in steps(s):
                found = images.get(t)
                if found is None:
                    if not pump:
                        return None
                    found = ()
                out.append((t, least(found)))
            return out

        return self._explore([(s, least(x)) for s, x in start], successors,
                             what)

    def _complete(self, chain, nodes, succ, comp):
        """Can the chain escape the product SCC `comp` faster than the
        automaton?

        The subset construction (`_least_subsets`) starts, at each chain
        state s, from the component's nodes at s, and takes every image
        inside the component; the component is complete exactly when
        the empty image is unreachable.

        Why least-counter sets are exact here, with D the component.
        Take (s, q, c) and (s, q, c') in D with c <= c'.  A D-run from
        c' along a chain word w is shadowed by a run from c through the
        same tableau states (the shadow step of `_holds`), whose
        counters stay <= and so within the bounds.  Each node (t, q2, d)
        of the shadow run lies in D: it is entered from D, and following
        a D-cycle through the run's (t, q2, d') from it lands on
        (t, q2, d') itself (the cycle step of `_holds`).  So every node
        of img_w(X) has one of img_w(least X) at the same tableau state
        below it,
        least(img_w(least X)) = least(img_w(X)), and by induction over w
        the reduced graph reaches the empty set exactly when the plain
        one does.
        """
        fibers = {}
        for i in comp:
            fibers.setdefault(nodes[i][0], []).append(i)
        start = [(s, fibers[s]) for s in sorted(fibers)]
        return self._least_subsets(chain, nodes, succ, start, comp,
                                   "completeness graph") is not None

    def check_pos(self, chain, valuation):
        """Is the satisfaction probability positive at this valuation?"""
        self.stats["queries"] += 1
        return self._holds(chain, "pos",
                           self._product(chain, self._bounds(valuation)))

    def check_as1(self, chain, valuation):
        """Is the satisfaction probability one at this valuation?"""
        self.stats["queries"] += 1
        return self._holds(chain, "as1",
                           self._product(chain, self._bounds(valuation)))

    def _accepting(self, nodes, succ):
        """The accepting SCCs of a product, in SCC order: cyclic (an
        acyclic one is never complete: the chain always moves on, and
        the automaton cannot follow inside it), and meeting every `acc_b`
        and `acc_p` set of the tableau: generalized Buchi acceptance read
        SCC by SCC (Couvreur, Saheb and Sutre, 2003).  A cyclic SCC
        meets the `acc_p` set of each counter its product keeps: a cycle
        returns to its counters, so it resets each one, entering it.

        No verdict differs from a product over the round-robin
        degeneralization U, whose states (q, i) move the index i to
        i + 1 mod k on leaving a state of the i-th of k `acc_b` sets,
        and whose one Buchi set is the first set at index 0.  Dropping
        the index maps U-product nodes (s, (q, i), c) to (s, q, c) and
        edges to edges, and every edge lifts from every index.

        - A complete U-SCC K with a Buchi node projects into an SCC D
          that meets every set: a cycle through the Buchi node moves
          the index through every value, leaving index i only from the
          i-th set.  K's chain states form a bottom SCC of the chain,
          so D visits no other, and K's runs project into D: D is
          complete.
        - Conversely, let D be complete and accepting here, and B a
          bottom SCC of the reachable U-nodes over D, with D's edges
          lifted.  Every D-path lifts from a node of B and stays in B,
          so B projects onto D, follows every chain word D follows, and
          is complete; and a D-walk through the i-th set moves the index
          from i to i + 1, so B holds a Buchi node.
        - The tracking sets of `_holds` project step by step, so their
          bottom components correspond, as with least-counter sets
          there.  A set meeting D at n holds a lift of n, from which a
          lifted D-walk reaches such a B: a bottom component meets a
          complete accepting SCC exactly when its projection does.
        """
        g = self.g
        scc = markov._tarjan(len(nodes), succ)
        accepting = []
        for ci, comp in enumerate(scc.components):
            if scc.has_cycle[ci]:
                masks = {g.states[nodes[i][1]] for i in comp}
                if all(any(accepts(h, pending, done) for h in masks)
                       for _, pending, done in g.acc_b + g.acc_p):
                    accepting.append(comp)
        return accepting

    def _holds(self, chain, threshold, product):
        """Does the product (`_product`) accept with probability > 0
        ("pos") or 1 ("as1")?

        "pos" asks whether some accepting product SCC (`_accepting`) is
        complete (`_complete`).  "as1" first tracks the product nodes
        alive along each chain path, on least-counter sets
        (`_least_subsets`, with images not restricted): a path with no
        node left refutes almost-sure satisfaction outright, before any
        completeness check.  Otherwise every recurrent behavior, a
        bottom component of the tracking graph, must offer a node at or
        below a node of a complete accepting SCC K: same chain state,
        same tableau state and counters <= pointwise.  Only those SCCs
        are checked, each at most once and in SCC order, and the first
        complete one settles that component.  `_accepting` reads
        generalized acceptance off each SCC, and shows why no
        degeneralization is needed.

        Why this gives the verdicts of plain sets, where a bottom
        component counts K when one of its sets meets K.  X is a set of
        product nodes at one chain state, img_t the step to chain
        successor t, and least as in `_least_subsets`.

        - Shadow step.  Take product nodes (s, q, c) and (s, q, c') with
          c <= c'.  For every edge (s, q, c') -> (t, q2, d') there is an
          edge (s, q, c) -> (t, q2, d) with d <= d'.  Both moves read
          the same letter and enter the same q2.  An F[<=k] counter
          resets where q2's flag is set; otherwise c_i + 1 <= c'_i + 1
          <= bound.  A G[<=c] member's r and w (`_always_step`) step
          alike: each is set to a value q2 fixes or moves by the same
          monotone rule, and each way to die from c dies from c' too.
        - Cycle step.  A path of tableau states that takes counters c'
          back to c' takes every c <= c' to c' too.  Each counter not 0
          all along it is set on it to a value a state fixes (F[<=k] and
          w to 0, r to c; else F[<=k] and w only grow, r only falls),
          and from there the two runs agree.
        - Images commute with least.  By the shadow step every node of
          img_t(X) has a node of img_t(least X) at its tableau state
          below it.  So least(img_t(least X)) = least(img_t(X)), and
          img_t(least X) is empty exactly when img_t(X) is.  The
          reduced tracking graph is therefore the image of the plain one
          under X -> least(X), and it dies exactly when the plain one
          dies.
        - Bottom components correspond.  The map commutes with every
          chain step.  So it maps each plain bottom component onto a
          strongly connected set closed under steps, a reduced bottom
          component.  And every reduced bottom component B is such an
          image: a plain set that maps into B reaches a plain bottom
          component, whose image B reaches and so equals.
        - Same SCCs get checked.  If a plain set X meets K at n, then
          least(X) holds some p <= n.  Conversely, let p be in least(X)
          with p <= n in K.  Follow a K-cycle through n along chain word
          w: by the cycle step, p's shadow lands exactly on n.  Then n
          is in img_w(X), which is a set of the same plain bottom
          component.
        - Conclusion.  Each component checks the same accepting SCCs as
          with plain sets, each at most once, so every verdict is
          unchanged.

        Plain membership is not enough: p lies below n, but need not lie
        in K.
        """
        nodes, succ, n_initial = product
        if threshold == "as1":
            tracking = self._least_subsets(
                chain, nodes, succ, [(chain.init, range(n_initial))], None,
                "tracking graph")
            if tracking is None:
                return False
        accepting = self._accepting(nodes, succ)
        if threshold == "pos":
            return any(self._complete(chain, nodes, succ, comp)
                       for comp in accepting)
        # tops[s, q]: (k, counters) of each node of accepting SCC k at
        # chain state s and tableau state q.
        tops = {}
        for k, comp in enumerate(accepting):
            for i in comp:
                s, q, c = nodes[i]
                tops.setdefault((s, q), []).append((k, c))
        complete = {}
        d_nodes, d_succ = tracking
        d_scc = markov._tarjan(len(d_nodes), d_succ)
        for ci in d_scc.bottom_components():
            below = set()
            for j in set().union(*[d_nodes[i][1]
                                   for i in d_scc.components[ci]]):
                s, q, c = nodes[j]
                below.update(k for k, top in tops.get((s, q), ())
                             if k not in below and _leq(c, top))
            for k in sorted(below):
                if k not in complete:
                    complete[k] = self._complete(chain, nodes, succ,
                                                 accepting[k])
                if complete[k]:
                    break
            else:
                return False
        return True

    def vbar(self, chain):
        """The paper's uniform witness bound m * |phi| * 2^|phi|: |phi|
        is the size of the NNF formula the tableau is built on."""
        return chain.m * self.base_size * 2 ** self.base_size

    def _pump(self, chain, threshold, product):
        """Does a pump certificate prove V>0 ("pos") or V=1 ("as1")
        empty at every valuation?  `product` is the pair product, the
        one `_witness_bound` counts N0 on.  On success `shortcut` is
        "pump" and `certificate` lists the certificate's chain walks
        (pi, gamma), one for "as1" and one per certified fibre for "pos".

        P is the pair product: the counter product without the
        variables' counters, so every run of the counter product at any
        valuation v projects to a P-path along the same chain word.  T
        is the plain subset construction over P (`_least_subsets`, with
        every set kept whole): a subset node (s, X) steps along each
        chain edge s -> t to t and the P-successors of X at t.
        Walks pi and gamma are chain words: pi leads through T from the
        start node to a node tau = (s, X), and gamma from tau back to
        tau.

        A pump.  gamma's transfer relation R holds (x, y, m) for x, y in
        X when a P-path from x along gamma ends in y, m being the union,
        over all such paths, of the variables reset on the way (those
        whose parametric flag is set at a node the path enters).  gamma
        pumps when, in the graph with an edge x -> y per entry, no
        cyclic SCC has every variable in the union of its edges' masks.

        - A pump kills every run.  Fix v and let w be its largest value.
          A counter run along pi gamma^n projects to a P-path, at some
          x_0 in X after pi (X holds every P-node that pi reaches) and
          at x_j in X after j rounds of gamma, with (x_{j-1}, x_j, m_j)
          in R and the run's resets in round j within m_j.  The walk
          x_0 ... x_n stays in an SCC of the graph while it takes edges
          inside it and never returns to one it left, so for n >=
          |X| (w + 2) it takes w + 1 consecutive edges inside one SCC C,
          which is then cyclic.  Some variable i is in no mask of C's
          edges: the run resets i in none of those w + 1 rounds, each at
          least one step long, so counter i passes w >= v_i and the run
          dies.  An empty subset node reached by pi (a graph that dies)
          kills every run along pi outright.
        - "as1".  T starts at (init, the initial pairs), so pi gamma^n
          is a chain path of positive probability along which no run of
          the counter product survives: its tracking graph (`_holds`)
          dies at v, and V=1 misses every v.
        - "pos".  A complete accepting SCC K of the counter product at v
          projects into one accepting SCC D of P (`_accepting`): its
          projection is strongly connected and keeps its tableau states
          and their parametric flags.  The chain states K visits are
          closed under chain steps, since K can follow each of them
          (`_complete`), and strongly connected: a bottom SCC B of the
          chain, all of whose states D visits, and K has a node at every
          state of B.  For each such D and B, T is built from one fibre
          (s, D's pairs at s), s in B, with images kept in D.  K's runs
          project into D, so a pump there gives a chain word from s that
          no run inside K follows from K's nodes at s: K is not
          complete.  A certified fibre for every such B of every D
          leaves no complete accepting SCC at any v, and V>0 is empty.

        The unions per (x, y) lose nothing: the argument reads only the
        union over each SCC's edges, and relations compose as R_gd(x, z)
        = OR over y of R_g(x, y) | R_d(y, z).  Each T-node tau of a
        cyclic SCC of T is tried, those with the smallest sets first,
        by a breadth-first closure over (T-node, relation) from (tau,
        identity) inside tau's SCC, which stops at the first pump.  The
        whole query may build PUMP_BUDGET such states; a spent budget,
        or a subset graph past the node cap, is no certificate.
        """
        nodes, succ, n_initial = product
        par, skip = self.g.par, len(self.g.const_bounds)
        resets = [sum(f << i for i, f in enumerate(par[q])) >> skip
                  for _, q, _ in nodes]
        budget = [PUMP_BUDGET]

        def pump(start, inside):
            return _within_cap(self._pump_walks, chain, nodes, succ, resets,
                               start, inside, budget)

        if threshold == "as1":
            found = [pump([(chain.init, range(n_initial))], None)]
        else:
            found = []
            chain_scc = markov.scc_decompose(chain)
            bottoms = [sorted(chain_scc.components[ci])
                       for ci in chain_scc.bottom_components()]
            for comp in self._accepting(nodes, succ):
                fibres = {}
                for i in comp:
                    fibres.setdefault(nodes[i][0], []).append(i)
                for bottom in bottoms:
                    if all(s in fibres for s in bottom):
                        for s in bottom:
                            walks = pump([(s, fibres[s])], comp)
                            if walks is not None or budget[0] <= 0:
                                break
                        found.append(walks)
        if None in found:
            return False
        self.shortcut = "pump"
        self.certificate = found
        return True

    def _pump_walks(self, chain, nodes, succ, resets, start, inside,
                    budget):
        """The walks (pi, gamma) of a pump in the subset graph from the
        one subset node `start`, with images kept in `inside` (None: not
        restricted), or None.  gamma is () when pi reaches an empty
        set.  `budget[0]` counts down the states the search builds."""
        t_nodes, t_succ = self._least_subsets(chain, nodes, succ, start,
                                              inside, "pump graph", True)
        parent, order = {0: None}, [0]
        for i in order:
            for j in t_succ[i]:
                if j not in parent:
                    parent[j] = i
                    order.append(j)

        def pi(i):
            out = []
            while i is not None:
                out.append(t_nodes[i][0])
                i = parent[i]
            return tuple(out[::-1])

        for i in order:
            if not t_nodes[i][1]:
                return pi(i), ()
        scc = markov._tarjan(len(t_nodes), t_succ)
        taus = sorted((len(t_nodes[i][1]), i)
                      for ci, comp in enumerate(scc.components)
                      if scc.has_cycle[ci] for i in comp)
        for _, tau in taus:
            if budget[0] <= 0:
                return None
            gamma = self._pump_loop(t_nodes, t_succ, scc.component_of, tau,
                                    succ, resets, budget)
            if gamma is not None:
                return pi(tau), gamma
        return None

    def _pump_loop(self, t_nodes, t_succ, component_of, tau, succ, resets,
                   budget):
        """The chain states after tau of a pumping closed walk of the
        subset graph through subset node tau, or None: a breadth-first
        closure over (subset node, transfer relation from tau's set),
        inside tau's SCC.  A relation is a set of (x, y, reset mask)
        with one entry per (x, y)."""
        full = (1 << len(self.g.var_names)) - 1
        x = t_nodes[tau][1]
        here = component_of[tau]
        start = tau, frozenset((a, a, 0) for a in x)
        parent = {start: None}
        queue = [start]
        for state in queue:
            i, rel = state
            for j in t_succ[i]:
                if component_of[j] != here:
                    continue
                target = t_nodes[j][1]
                moved = {}
                for a, y, m in rel:
                    for y2 in succ[y]:
                        if y2 in target:
                            moved[a, y2] = moved.get((a, y2), 0) | m \
                                | resets[y2]
                nxt = j, frozenset((a, y, m) for (a, y), m in moved.items())
                if j == tau and _pumps(x, nxt[1], full):
                    gamma = [t_nodes[j][0]]
                    while state is not start:
                        gamma.append(t_nodes[state[0]][0])
                        state = parent[state]
                    return tuple(gamma[::-1])
                if nxt in parent:
                    continue
                parent[nxt] = state
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
                queue.append(nxt)
        return None

    def _witness_bound(self, chain, threshold, top, ask_n0):
        """The step `emptiness` and `min_set` share: (n, oracle), with n
        the uniform bound to ask V>0 ("pos") or V=1 ("as1") at, None when
        V is proved empty, and oracle(point) asking each point once.

        With parameters, one pair product serves three steps: the
        counter-free check (`_holds` on it; probability zero, or below
        one, proves V>0, or V=1, empty, with `shortcut` "counter-free"),
        then, with `ask_n0` and N0 < `top`, the point at N0 (in V: n is
        N0) and a pump certificate (`_pump`: V is empty).  Otherwise, or
        past the node cap, n is `top`.  With parameters `bound_used` is n.

        The counter-free check is exact.  It asks phi with every F[<=x]
        read as F and every constant bound kept, which phi[v] implies at
        every v (the NNF formula is monotone in its bounds; Kupferman,
        Piterman and Vardi, 2009): the tableau runs that visit every
        `acc_b` and `acc_p` set infinitely often, since a marked F[<=x]
        psi stays marked until psi holds, which its `acc_p` set forces,
        and the formula is positive in an unmarked one.  The tableau is
        unambiguous, and `_accepting` keeps the SCCs that meet every
        set, the acceptance of a product SCC under generalized Buchi
        conditions (Couvreur, Saheb and Sutre, 2003).  `_complete` and
        the tracking graph read acceptance only through which SCCs are
        accepting, so their proofs carry over unchanged.

        N0 is the size of the pair product: counters only kill runs, so
        every node of a counter product, less its variables' counters,
        is one of the pair product's.  N0 is only ever asked where a
        true answer is exact.  Whether a false one proves anything,
        whether v in V implies min(v, N0) in V, is still open.  Cutting
        a repeated pair out of a long streak works on a finite path at a
        uniform bound; a streak inside a bottom component cannot be cut,
        and with two variables at different bounds a cut can join two
        short streaks into one too long.  So where the answer at N0 is
        false, the pump (`_pump`) runs on the same product before the
        witness bound.
        """
        self.bound_used = self.certificate = self.shortcut = None
        check = self.check_pos if threshold == "pos" else self.check_as1
        answers = {}

        def oracle(point):
            if point not in answers:
                answers[point] = check(chain,
                                       dict(zip(self.user_names, point)))
            return answers[point]

        n = top
        product = self.user_names and _within_cap(self._product, chain, [])
        if product and _within_cap(self._holds, chain, threshold,
                                   product) is False:
            n = None
            self.shortcut = "counter-free"
        elif product and ask_n0 and len(product[0]) < top:
            n0 = len(product[0])
            if oracle((n0,) * len(self.user_names)):
                n = n0
            elif self._pump(chain, threshold, product):
                n = None
        if self.user_names:
            self.bound_used = n
        return n, oracle

    def emptiness(self, chain, threshold):
        """True iff V>0 ("pos") or V=1 ("as1") is empty: with parameters,
        `_witness_bound` asks the counter-free check, N0 and the pump;
        when none decides, V is nonempty iff it holds the point at vbar,
        the witness bound.  `bound_used` is None when no bound decided.
        """
        names = self.user_names
        n, oracle = self._witness_bound(chain, threshold, self.vbar(chain),
                                        bool(names))
        return n is None or not oracle((n,) * len(names))

    def min_set(self, chain, threshold="pos", bound=None):
        """Minimal valuations of V>0 (or V=1) as an antichain, searched
        in the box {0..N}^d: N is vbar, or the `bound` argument when a
        tighter enclosure of the minimal valuations is known, lowered by
        `_witness_bound`.  With one variable that step asks N0 and the
        pump; with more, N0 is no box top, so neither is asked.  The
        search asks each valuation at most once and the box top first,
        so `stats["queries"]` counts the distinct valuations asked, and
        a false top ends the search after one query.  `bound_used` is
        the box top searched, None when no search ran.

        Callers: the CLI's Diamond and FX "=1" `minset`, FX with the box
        m * |phi|, and `buchi.min_set_pos_genbuchi`.  FX ">0" has a
        search of its own that asks no oracle.
        """
        names = self.user_names
        if not names:
            raise FragmentError("formula has no parameter variables")
        n, oracle = self._witness_bound(
            chain, threshold, self.vbar(chain) if bound is None else bound,
            len(names) == 1)
        if n is None:
            return MinimalSet(names)
        return bisection_min_set(oracle, (0,) * len(names),
                                 (n,) * len(names), names)

    def member(self, chain, threshold, valuation):
        """Is `valuation` in V>0 ("pos") or V=1 ("as1")?  V is upward
        closed, and nonempty iff it holds the uniform point at vbar, so
        a valuation at or above vbar in every variable is in V exactly
        when V is not empty (`emptiness`)."""
        n = self.vbar(chain)
        if all(valuation[x] >= n for x in self.user_names):
            return not self.emptiness(chain, threshold)
        check = self.check_pos if threshold == "pos" else self.check_as1
        return check(chain, valuation)
