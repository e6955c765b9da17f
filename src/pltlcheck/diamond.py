"""General checker for parametric formulas with bounded-eventually.

The pipeline follows the tableau route: consistent subsets of the
formula closure give an unambiguous generalized automaton, a round-robin
index removes the multiple Buchi sets, and per-variable counters enforce
the parametric bounds at a concrete valuation.  Qualitative verdicts
against a chain come from SCC analysis of the synchronous product: a
positive probability needs a reachable complete accepting SCC, and
probability one additionally needs every bottom behavior of the chain to
be covered by one.

Products are explored lazily from the initial configurations, so only
the reachable part is ever materialized.
"""

from __future__ import annotations

from .formula import (
    And, Always, Atom, BoundedAlways, BoundedEventually, Eventually,
    FragmentError, NegAtom, Next, Not, Or, Release, Until, atoms, closure,
    nesting_depth, rename_apart, rewrite_constant_bounds, size, subformulas,
    to_nnf, variables,
)
from . import markov
from .valuation import MinimalSet, bisection_min_set


class ResourceLimitError(Exception):
    """A configured state-count cap was exceeded; no verdict produced."""


DEFAULT_MAX_PRODUCT_NODES = 10 ** 7
MAX_CLOSURE = 22  # atoms plus non-literal closure members


class GAutomaton:
    """Generalized automaton over consistent closure subsets.

    `acc_b` holds one state set per until/release-like subformula;
    `acc_p` one per parameter variable, in the formula's variable order.
    The letter of a state is its set of positive atoms: every atom of
    the formula is decided in every state.
    """

    def __init__(self, phi):
        for f in subformulas(phi):
            if isinstance(f, BoundedAlways):
                raise FragmentError("constant always must be unfolded first")
            if isinstance(f, Not):
                raise FragmentError("unsupported node %r" % (f,))
        # d nested operators are d distinct closure members; checked
        # first, so closure() never hashes a deep unfolded formula.
        operators = nesting_depth(phi) - 1
        if operators > MAX_CLOSURE:
            raise ResourceLimitError("closure too large: %d nested operators"
                                     % operators)
        subs = closure(phi)
        names = atoms(phi)
        nonlits = [f for f in subs if not isinstance(f, (Atom, NegAtom))]
        if len(names) + len(nonlits) > MAX_CLOSURE:
            raise ResourceLimitError("closure too large: %d atoms, %d operators"
                                     % (len(names), len(nonlits)))
        self.formula = phi
        self.states = []
        for amask in range(2 ** len(names)):
            literals = set()
            for i, a in enumerate(names):
                literals.add(Atom(a) if amask >> i & 1 else NegAtom(a))
            for tmask in range(2 ** len(nonlits)):
                h = set(literals)
                h.update(f for i, f in enumerate(nonlits) if tmask >> i & 1)
                if _consistent(h, subs):
                    self.states.append(frozenset(h))
        self.letters = [frozenset(f.name for f in h if isinstance(f, Atom))
                        for h in self.states]
        self.initial = [i for i, h in enumerate(self.states) if phi in h]
        self.succ = [[j for j, h2 in enumerate(self.states)
                      if _edge_ok(h, h2, subs)]
                     for h in self.states]
        self.acc_b = []
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
                self.acc_b.append(
                    (f, frozenset(i for i, h in enumerate(self.states)
                                  if member(h))))
        by_var = {f.bound.name: f for f in subs
                  if isinstance(f, BoundedEventually)}
        self.acc_p = []
        for x in variables(phi):
            f = by_var[x]
            self.acc_p.append(
                (x, frozenset(i for i, h in enumerate(self.states)
                              if f not in h or f.child in h)))


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


def _edge_ok(h, h2, subs):
    for f in subs:
        if isinstance(f, Next):
            if (f in h) != (f.child in h2):
                return False
        elif isinstance(f, Until):
            if (f in h) != (f.right in h or (f.left in h and f in h2)):
                return False
        elif isinstance(f, Release):
            if (f in h) != (f.right in h and (f.left in h or f in h2)):
                return False
        elif isinstance(f, Eventually):
            if (f in h) != (f.child in h or f in h2):
                return False
        elif isinstance(f, BoundedEventually):
            # One-directional: a pending bound keeps propagating until
            # it is discharged, and the product counters kill any streak
            # that outlives the bound.  A marked successor never forces
            # a mark here, so a run may leave the obligation unmarked;
            # such runs only ever under-approximate, which is harmless
            # because the formula is positive in its bounds.
            if f in h and f.child not in h and f not in h2:
                return False
        elif isinstance(f, Always):
            if (f in h) != (f.child in h and f in h2):
                return False
    return True


class UAutomaton:
    """Round-robin degeneralization of a GAutomaton.

    States are (g-state, index) pairs flattened to integers; the single
    Buchi set is the first generalized set at index 1.  Parametric sets
    ignore the index.
    """

    def __init__(self, g):
        self.g = g
        k = max(1, len(g.acc_b))
        self.k = k
        n_g = len(g.states)
        self.n = n_g * k
        if g.acc_b:
            in_f = [[q in g.acc_b[i][1] for i in range(k)]
                    for q in range(n_g)]
            f1 = g.acc_b[0][1]
        else:
            in_f = [[True] for _ in range(n_g)]
            f1 = frozenset(range(n_g))
        self.letter = [g.letters[u // k] for u in range(self.n)]
        self.is_buchi = [u % k == 0 and (u // k) in f1 for u in range(self.n)]
        self.var_names = [x for x, _ in g.acc_p]
        self.par = [[(u // k) in fx for u in range(self.n)]
                    for _, fx in g.acc_p]
        self.succ = []
        for u in range(self.n):
            q, i = divmod(u, k)
            i2 = (i + 1) % k if in_f[q][i] else i
            self.succ.append([q2 * k + i2 for q2 in g.succ[q]])
        self.initial = [q0 * k for q0 in g.initial]


def format_automaton(aut):
    """Plain-text adjacency dump of a G- or U-automaton."""
    lines = []
    if isinstance(aut, GAutomaton):
        lines.append("g-automaton states=%d" % len(aut.states))
        lines.append("initial %s" % " ".join(map(str, aut.initial)))
        for label, f in aut.acc_b:
            lines.append("buchi [%s] %s" % (label, " ".join(map(str, sorted(f)))))
        for x, f in aut.acc_p:
            lines.append("parametric %s %s" % (x, " ".join(map(str, sorted(f)))))
        letters = aut.letters
        succ = aut.succ
    else:
        lines.append("u-automaton states=%d round-robin=%d" % (aut.n, aut.k))
        lines.append("initial %s" % " ".join(map(str, aut.initial)))
        lines.append("buchi %s" % " ".join(
            str(u) for u in range(aut.n) if aut.is_buchi[u]))
        for x, members in zip(aut.var_names, aut.par):
            lines.append("parametric %s %s" % (x, " ".join(
                str(u) for u in range(aut.n) if members[u])))
        letters = aut.letter
        succ = aut.succ
    for u, targets in enumerate(succ):
        for t in targets:
            lines.append("edge %d {%s} %d" % (u, ",".join(sorted(letters[u])), t))
    return "\n".join(lines) + "\n"


class DiamondChecker:
    """Qualitative membership checks for one formula across valuations.

    The automaton is built once; each query explores the product with
    the chain lazily.  Valuations are given over the formula's original
    variable names; repeated names are renamed apart internally and the
    shared bound is applied to every occurrence.
    """

    def __init__(self, phi, max_product_nodes=DEFAULT_MAX_PRODUCT_NODES):
        nnf = to_nnf(phi)
        self.base_size = size(nnf)
        renamed, self.fresh_to_user = rename_apart(rewrite_constant_bounds(nnf))
        self.user_names = variables(phi)
        self.max_product_nodes = max_product_nodes
        self.g = GAutomaton(renamed)
        self.u = UAutomaton(self.g)
        self.atoms = frozenset(atoms(renamed))
        self.stats = {"product_nodes": 0, "queries": 0}

    def _bounds(self, valuation):
        assign = valuation.assignment if hasattr(valuation, "assignment") \
            else dict(valuation)
        bounds = []
        for fresh in self.u.var_names:
            user = self.fresh_to_user[fresh]
            if user not in assign:
                raise FragmentError("valuation misses variable %r" % user)
            bounds.append(assign[user])
        return bounds

    def _step_counters(self, u2, counters, bounds):
        """Per-variable pending counters after entering u2, or None.

        A counter is the length of the current marked-but-unsatisfied
        streak of its bounded eventuality; a run dies the moment a
        streak would exceed the bound.  A run's first state is entered
        with every counter at zero.
        """
        nxt = []
        for i, v in enumerate(bounds):
            c = 0 if self.u.par[i][u2] else counters[i] + 1
            if c > v:
                return None
            nxt.append(c)
        return tuple(nxt)

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

    def _runs(self, start, step, letters, bounds, what):
        """Product of the counter automaton with a labelled graph.

        The graph starts at position `start`, `step(p)` lists the
        positions after p and `letters[p]` is p's letter restricted to
        the formula's atoms.  Returns (nodes, succ, number of initial
        nodes); a node is (position, automaton state, counters).
        """
        u_succ, u_letter = self.u.succ, self.u.letter

        def moves(p, targets, counters):
            out = []
            for u2 in targets:
                if u_letter[u2] != letters[p]:
                    continue
                nxt = self._step_counters(u2, counters, bounds)
                if nxt is not None:
                    out.append((p, u2, nxt))
            return out

        initial = moves(start, self.u.initial, (0,) * len(bounds))

        def successors(node):
            p, u, counters = node
            return [n for p2 in step(p)
                    for n in moves(p2, u_succ[u], counters)]

        nodes, succ = self._explore(initial, successors, what)
        return nodes, succ, len(initial)

    def accepts_lasso(self, word, valuation):
        """Does the counter automaton accept stem + loop^omega at v?

        Nodes pair a word position with an automaton configuration; the
        word is accepted iff a cycle through a Buchi configuration is
        reachable.
        """
        letters = [frozenset(l) & self.atoms
                   for l in tuple(word.stem) + tuple(word.loop)]
        wrap = len(word.stem)

        def step(p):
            return (p + 1 if p + 1 < len(letters) else wrap,)

        nodes, succ, _ = self._runs(0, step, letters, self._bounds(valuation),
                                    "lasso graph")
        scc = markov._tarjan(len(nodes), succ)
        return any(scc.has_cycle[ci]
                   and any(self.u.is_buchi[nodes[i][1]] for i in comp)
                   for ci, comp in enumerate(scc.components))

    def _product(self, chain, valuation):
        """Reachable product with the chain: (nodes, succ, initial count)."""
        letters = [frozenset(l) & self.atoms for l in chain.labels]
        product = self._runs(chain.init, chain.successors, letters,
                             self._bounds(valuation), "product")
        self.stats["product_nodes"] += len(product[0])
        return product

    def _good_nodes(self, chain, nodes, succ):
        """Indices of nodes inside some complete accepting product SCC."""
        scc = markov._tarjan(len(nodes), succ)
        good = set()
        for ci, comp in enumerate(scc.components):
            # An acyclic component is never complete: the chain always
            # moves on, and the automaton cannot follow inside it.
            if not scc.has_cycle[ci]:
                continue
            if not any(self.u.is_buchi[nodes[i][1]] for i in comp):
                continue
            if self._complete(chain, comp, nodes, succ):
                good |= comp
        return good

    def _complete(self, chain, comp, nodes, succ):
        """Can the chain escape the component faster than the automaton?

        From each state's fiber of automaton configurations, follow every
        chain transition taking the joint image inside the component; the
        component is complete exactly when the empty image is unreachable.
        """
        fiber = {}
        for i in comp:
            fiber.setdefault(nodes[i][0], set()).add(i)
        start = [(s, frozenset(fiber[s])) for s in sorted(fiber)]
        edges = {i: [j for j in succ[i] if j in comp] for i in comp}
        return self._explore(start, self._images(chain, nodes, edges),
                             "completeness graph") is not None

    def _images(self, chain, nodes, edges):
        """Successor function of a subset construction over the product.

        A subset node (s, alive) pairs a chain state with product nodes
        alive there; following the chain step s -> t gives (t, the
        `edges` successors of alive at t).  An empty image returns None,
        which stops the exploration.
        """
        def successors(node):
            s, alive = node
            out = []
            for t in chain.successors(s):
                image = frozenset(j for a in alive for j in edges[a]
                                  if nodes[j][0] == t)
                if not image:
                    return None
                out.append((t, image))
            return out
        return successors

    def check_pos(self, chain, valuation):
        """Is the satisfaction probability positive at this valuation?"""
        self.stats["queries"] += 1
        nodes, succ, _ = self._product(chain, valuation)
        return bool(self._good_nodes(chain, nodes, succ))

    def check_as1(self, chain, valuation):
        """Is the satisfaction probability one at this valuation?

        Tracks the set of automaton configurations alive along each
        chain path: a path with no configuration left refutes almost-sure
        satisfaction outright, and otherwise every recurrent behavior
        (bottom component of the tracking graph) must offer a
        configuration inside a complete accepting product SCC.
        """
        self.stats["queries"] += 1
        nodes, succ, n_initial = self._product(chain, valuation)
        good = self._good_nodes(chain, nodes, succ)
        tracking = self._explore([(chain.init, frozenset(range(n_initial)))],
                                 self._images(chain, nodes, succ),
                                 "tracking graph")
        if tracking is None:
            return False
        d_nodes, d_succ = tracking
        scc = markov._tarjan(len(d_nodes), d_succ)
        return all(any(d_nodes[i][1] & good for i in scc.components[ci])
                   for ci in scc.bottom_components())

    def vbar(self, chain):
        """Uniform witness bound m * |phi| * 2^|phi| for emptiness checks."""
        return chain.m * self.base_size * 2 ** self.base_size

    def witness(self, chain):
        """The uniform valuation at the witness bound: the valuation set
        is nonempty iff it contains this point."""
        return {x: self.vbar(chain) for x in self.user_names}

    def emptiness_pos(self, chain):
        """True iff V>0 is empty, decided at the uniform witness bound."""
        return not self.check_pos(chain, self.witness(chain))

    def emptiness_as1(self, chain):
        """True iff V=1 is empty, decided at the uniform witness bound."""
        return not self.check_as1(chain, self.witness(chain))

    def min_set(self, chain, threshold="pos", bound=None):
        """Minimal valuations of V>0 (or V=1) as an antichain.

        The search box is {0..N}^d with N the witness bound, shrinkable
        through `bound` when a tighter enclosure is known.
        """
        check = self.check_pos if threshold == "pos" else self.check_as1
        names = self.user_names
        if not names:
            raise FragmentError("formula has no parameter variables")
        n = self.vbar(chain) if bound is None else bound
        if not check(chain, {x: n for x in names}):
            return MinimalSet(names)

        def oracle(point):
            return check(chain, dict(zip(names, point)))

        return bisection_min_set(oracle, (0,) * len(names),
                                 (n,) * len(names), names)
