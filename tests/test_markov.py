import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    coin_chain_text, ergodicity_coefficient, random_chain,
    reference_bounded_reach_vector, reference_min_val_geq, reference_sccs,
    reference_unbounded_reach_vector,
)
from pltlcheck import markov, reach
from pltlcheck.fixtures import chain_text, coin_chain
from pltlcheck.markov import (
    ChainError, ChainParseError, MarkovChain, all_pairs_distance,
    bounded_reach_prob, bounded_reach_vector, distances_from, longest_run,
    parse_chain, reachable_states, scc_decompose, settling_step,
    states_reaching, transient_matrix, unbounded_reach_prob,
    unbounded_reach_vector,
)


def test_parse_roundtrip():
    c = parse_chain(coin_chain_text())
    assert c.m == 2 and c.init == 0
    assert c.labels == [frozenset(), frozenset({"a"})]
    assert c.rows[0] == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert parse_chain(chain_text(c)).rows == c.rows


def test_parse_errors():
    with pytest.raises(ChainParseError):
        parse_chain("states 2\ninit 0\ntrans 0 0 1/2\ntrans 1 1 1\n")
    with pytest.raises(ChainParseError):
        parse_chain("init 0\ntrans 0 0 1\n")
    with pytest.raises(ChainParseError):
        parse_chain("states 1\ninit 5\ntrans 0 0 1\n")
    with pytest.raises(ChainParseError):
        parse_chain("states 1\ninit 0\ntrans 0 0 2\n")
    # A state with no row is not reported before an earlier bad row.
    with pytest.raises(ChainParseError, match="^state 0: row sums to 1/2"):
        parse_chain("states 3\ninit 0\ntrans 0 0 1/2\ntrans 2 2 1\n")
    with pytest.raises(ChainParseError, match="^state 1: row sums to 0, not 1$"):
        parse_chain("states 3\ninit 0\ntrans 0 0 1\ntrans 2 2 1\n")


def test_row_sum_validation():
    with pytest.raises(ChainError):
        MarkovChain(1, 0, [{0: Fraction(1, 2)}], [set()])
    with pytest.raises(ChainError):
        MarkovChain(2, 0, [{0: Fraction(1)}, {}], [set(), set()])


def test_blank_and_comment_lines_between_directives_are_skipped():
    text = ("states 2\ninit 0\nlabel 1 a\n"
            "trans 0 0 1/2\ntrans 0 1 1/2\ntrans 1 1 1\n")
    padded = "".join(line + "\n\n   \n# note\n\t# trans 0 0 1\n"
                     for line in text.splitlines())
    plain, spaced = parse_chain(text), parse_chain(padded)
    assert (spaced.m, spaced.init, spaced.rows, spaced.labels) == \
        (plain.m, plain.init, plain.rows, plain.labels)


@pytest.mark.parametrize("m,init,rows,labels,message", [
    (0, 0, [], [], "chain needs at least one state"),
    (2, 2, [{0: Fraction(1)}, {1: Fraction(1)}], [set(), set()],
     "initial state 2 out of range"),
    (2, 0, [{0: Fraction(1)}], [set(), set()],
     "rows/labels must cover all 2 states"),
    (2, 0, [{0: Fraction(1)}, {1: Fraction(1)}], [set()],
     "rows/labels must cover all 2 states"),
])
def test_chain_constructor_errors(m, init, rows, labels, message):
    with pytest.raises(ChainError, match="^%s$" % re.escape(message)):
        MarkovChain(m, init, rows, labels)


def test_scc_decomposition():
    # 0 -> 1 <-> 2, 0 -> 3 (absorbing).
    one = Fraction(1)
    half = Fraction(1, 2)
    c = MarkovChain(4, 0,
                    [{1: half, 3: half}, {2: one}, {1: one}, {3: one}],
                    [set()] * 4)
    scc = scc_decompose(c)
    comps = sorted(map(sorted, scc.components))
    assert comps == [[0], [1, 2], [3]]
    bottoms = {frozenset(scc.components[i]) for i in scc.bottom_components()}
    assert bottoms == {frozenset({1, 2}), frozenset({3})}
    i0 = scc.component_of[0]
    assert not scc.has_cycle[i0]
    assert scc.has_cycle[scc.component_of[1]]


def test_distances_and_reachability():
    c = parse_chain(coin_chain_text())
    assert distances_from(c, c.init) == [0, 1]
    assert reachable_states(c) == {0, 1}
    assert states_reaching(c, {1}) == {0, 1}
    d = all_pairs_distance(c)
    assert d[1][0] == math.inf


def test_bounded_reach_exact():
    c = coin_chain()
    targets = c.states_with("a")
    assert bounded_reach_prob(c, targets, 0) == 0
    assert bounded_reach_prob(c, targets, 1) == Fraction(1, 2)
    assert bounded_reach_prob(c, targets, 3) == Fraction(7, 8)
    assert unbounded_reach_prob(c, targets) == 1


def test_unbounded_reach_partial():
    # From 0: to target 1 w.p. 1/3, to sink 2 w.p. 2/3.
    one = Fraction(1)
    c = MarkovChain(3, 0,
                    [{1: Fraction(1, 3), 2: Fraction(2, 3)},
                     {1: one}, {2: one}],
                    [set(), {"a"}, set()])
    assert unbounded_reach_prob(c, {1}) == Fraction(1, 3)


def test_bounded_below_unbounded():
    rng = random.Random(5)
    for _ in range(30):
        c = random_chain(rng)
        targets = c.states_with("a")
        if not targets:
            continue
        mu_inf = unbounded_reach_prob(c, targets)
        prev = Fraction(-1)
        for n in range(8):
            mu = bounded_reach_prob(c, targets, n)
            assert prev <= mu <= mu_inf
            prev = mu


def test_transient_matrix_and_ergodicity():
    c = coin_chain()
    states, q, r = transient_matrix(c, c.states_with("a"))
    assert states == [0]
    assert q == [[Fraction(1, 2)]]
    assert r == [Fraction(1, 2)]
    assert ergodicity_coefficient(q) == Fraction(1, 2)
    with pytest.raises(ChainError):
        ergodicity_coefficient([])


def test_longest_run():
    succ = {0: [1, 2], 1: [3], 2: [3], 3: [3]}.get
    # Vertex 3 lies outside, so its self-loop does not count.
    assert longest_run({0, 1, 2}, succ) == 2
    assert longest_run({0, 1, 2, 3}, succ) is None
    assert longest_run({1, 2}, {1: [2], 2: [1]}.get) is None
    assert longest_run(set(), succ) == 0
    # A longer branch found after a shorter one.
    branches = {0: [1, 2], 1: [], 2: [3], 3: []}.get
    assert longest_run({0, 1, 2, 3}, branches) == 3


@st.composite
def digraphs(draw, max_vertices=6):
    """Successor lists of a digraph on 0..n-1, self-loops and isolated
    vertices included."""
    n = draw(st.integers(0, max_vertices))
    if not n:
        return []
    return draw(st.lists(st.lists(st.integers(0, n - 1), unique=True),
                         min_size=n, max_size=n))


def _reaches(succ):
    """Per vertex v, the vertices some path from v reaches, v itself
    included."""
    out = []
    for v in range(len(succ)):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        out.append(seen)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(digraphs())
def test_tarjan_matches_mutual_reachability(succ):
    # Components are the classes of mutual reachability, listed so that
    # edges between them go to higher indices; a component is bottom
    # when no edge leaves it and cyclic when an edge stays inside it.
    # The test references' own SCC routine must agree as well.
    n = len(succ)
    reach = _reaches(succ)
    scc = markov._tarjan(n, succ)
    classes = {frozenset(w for w in reach[v] if v in reach[w])
               for v in range(n)}
    assert sorted(scc.components, key=min) == sorted(classes, key=min)
    expected = []
    for i, comp in enumerate(scc.components):
        assert all(scc.component_of[v] == i for v in comp)
        out = {scc.component_of[w] for v in comp for w in succ[v]} - {i}
        assert all(j > i for j in out)
        cyclic = any(w in comp for v in comp for w in succ[v])
        assert scc.bottom[i] == (not out)
        assert scc.has_cycle[i] == cyclic
        expected.append((comp, cyclic, not out))
    assert scc.bottom_components() == [
        i for i, (_, _, bottom) in enumerate(expected) if bottom]
    assert reference_sccs(n, succ) == sorted(expected, key=lambda c: min(c[0]))


def _brute_longest_run(vertices, succ):
    """Most vertices on a simple path inside `vertices`, or None when
    an edge from a path's end back into the path closes a cycle, by
    enumerating every simple path."""
    best, cyclic = 0, False
    paths = [(v,) for v in vertices]
    while paths:
        path = paths.pop()
        best = max(best, len(path))
        for w in succ[path[-1]]:
            if w in path:
                cyclic = True
            elif w in vertices:
                paths.append(path + (w,))
    return None if cyclic else best


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(digraphs(), st.data())
def test_longest_run_matches_simple_paths(succ, data):
    # A drawn subset of the vertices: edges leaving it are ignored, and
    # a cycle inside it, a self-loop too, gives None.
    vertices = data.draw(st.sets(st.sampled_from(range(len(succ))))
                         if succ else st.just(set()))
    assert longest_run(vertices, succ.__getitem__) == _brute_longest_run(
        vertices, succ)


# Each row of a drawn chain has its own odd prime denominator, so the
# denominators are pairwise coprime and none is a power of two: the
# integer stepper's scale D is their product.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def coprime_chains(draw):
    """Chains of 1-9 states; the states labelled a are the target set."""
    m = draw(st.integers(1, 9))
    primes = draw(st.permutations(ODD_PRIMES))
    rows = []
    for q in primes[:m]:
        # At most q - 1 distinct cuts split q, so a row of denominator
        # q has at most q successors.
        succ = draw(st.lists(st.integers(0, m - 1), min_size=1,
                             max_size=min(6, m, q), unique=True))
        cuts = sorted(draw(st.lists(st.integers(1, q - 1),
                                    min_size=len(succ) - 1,
                                    max_size=len(succ) - 1, unique=True)))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [q])]
        rows.append({t: Fraction(w, q) for t, w in zip(succ, weights)})
    targets = draw(st.sets(st.integers(0, m - 1)))
    labels = [{"a"} if s in targets else set() for s in range(m)]
    return MarkovChain(m, draw(st.integers(0, m - 1)), rows, labels)


# A threshold is a fixed rational, or "limit"/"step" for mu_infinity or
# mu_n of the drawn chain when that lies strictly between 0 and 1: the
# cases where mu_n >= p holds with equality.
THRESHOLDS = st.sampled_from(["limit", "step", Fraction(1, 2),
                              Fraction(1, 3), Fraction(3, 4),
                              Fraction(9, 10)])

THIRDS = [{0: Fraction(2, 3), 1: Fraction(1, 3)}, {1: Fraction(1)}]
FIVE = {t: Fraction(w, 11) for t, w in enumerate((1, 2, 3, 4, 1))}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(coprime_chains(), st.integers(0, 40), THRESHOLDS)
# No target state.
@example(MarkovChain(2, 0, THIRDS, [set(), set()]), 7, "limit")
# The initial state is a target.
@example(MarkovChain(2, 1, THIRDS, [set(), {"a"}]), 0, Fraction(1, 2))
# State 2 is unreachable from the initial state 0.
@example(MarkovChain(3, 0, THIRDS + [{0: Fraction(3, 5), 2: Fraction(2, 5)}],
                     [set(), {"a"}, set()]), 40, "step")
# The initial state has five successors, two of them targets, which
# the stepper merges into one entry.
@example(MarkovChain(5, 0, [FIVE, {1: Fraction(1)},
                            {0: Fraction(2, 5), 2: Fraction(3, 5)},
                            {0: Fraction(1, 3), 3: Fraction(2, 3)},
                            {4: Fraction(1)}],
                     [set(), {"a"}, {"a"}, set(), set()]), 40, "limit")
def test_numerics_match_fraction_references(chain, n, threshold):
    targets = chain.states_with("a")
    bounded = bounded_reach_vector(chain, targets, n)
    assert bounded == reference_bounded_reach_vector(chain, targets, n)
    mu_n = bounded_reach_prob(chain, targets, n)
    assert mu_n == bounded[chain.init]
    unbounded = unbounded_reach_vector(chain, targets)
    assert unbounded == reference_unbounded_reach_vector(chain, targets)
    assert all(type(v) is Fraction for v in bounded + unbounded + [mu_n])
    if threshold in ("limit", "step"):
        vector = unbounded if threshold == "limit" else bounded
        threshold = vector[chain.init]
        if not 0 < threshold < 1:
            return
    assert (reach.min_val_geq(chain, "a", threshold)
            == reference_min_val_geq(chain, "a", threshold))


@pytest.mark.parametrize("seed", range(10))
def test_rows_wider_than_the_kernels_step_exactly(seed):
    # Every chain has rows past MAX_KERNEL_WIDTH, once their targets are
    # merged: those are stepped with no generated kernel.
    rng = random.Random(seed)
    m = rng.randint(markov.MAX_KERNEL_WIDTH + 2, 3 * markov.MAX_KERNEL_WIDTH)
    rows = []
    for s in range(m):
        width = rng.choice([1, 2, rng.randint(1, m),
                            rng.randint(markov.MAX_KERNEL_WIDTH + 1, m)])
        weights = [rng.randint(1, 9) for _ in range(width)]
        rows.append({t: Fraction(w, sum(weights)) for t, w in
                     zip(rng.sample(range(m), width), weights)})
    labels = [{"a"} if s == m - 1 or rng.random() < 0.1 else set()
              for s in range(m)]
    chain = MarkovChain(m, 0, rows, labels)
    targets = chain.states_with("a")
    assert any(len({t if t not in targets else None for t in row})
               > markov.MAX_KERNEL_WIDTH
               for s, row in enumerate(rows) if s not in targets)
    for n in (0, 1, 2, 7):
        want = reference_bounded_reach_vector(chain, targets, n)
        assert bounded_reach_vector(chain, targets, n) == want
        assert bounded_reach_prob(chain, targets, n) == want[chain.init]
    assert markov._kernel.cache_info().currsize <= markov.MAX_KERNEL_WIDTH


def _forward_chain(rng, m):
    """A random chain whose edges go to higher states, except that the
    last state and a few others loop on themselves."""
    rows = []
    for s in range(m):
        succs = sorted({rng.randrange(s, m) if rng.random() < 0.2 else
                        rng.randrange(s + 1, m) if s + 1 < m else s
                        for _ in range(rng.randint(1, 3))})
        rows.append({t: Fraction(1, len(succs)) for t in succs})
    labels = [{"a"} if rng.random() < 0.3 else set() for _ in range(m)]
    return MarkovChain(m, 0, rows, labels)


@pytest.mark.parametrize("seed", range(40))
def test_settling_step_is_where_mu_stops_changing(seed):
    rng = random.Random(seed)
    chain = (random_chain(rng, max_states=6) if seed % 2
             else _forward_chain(rng, rng.randint(1, 7)))
    targets = chain.states_with("a")
    n = settling_step(chain, targets, chain.init)
    if n is None:
        return
    limit = unbounded_reach_prob(chain, targets)
    assert bounded_reach_prob(chain, targets, n) == limit
    assert n == 0 or bounded_reach_prob(chain, targets, n - 1) < limit


def _solve_calls(monkeypatch):
    """The unknowns of each call to `markov._solve`, in call order."""
    calls = []
    solve = markov._solve

    def spy(rows, rhs):
        calls.append(set(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(markov, "_solve", spy)
    return calls


# Every bottom component holds an a-state: every value is 1.
ALL_BOTTOMS_HIT = MarkovChain(
    5, 0, [{1: Fraction(1, 2), 2: Fraction(1, 2)},
           {1: Fraction(1, 3), 3: Fraction(2, 3)},
           {0: Fraction(1, 2), 2: Fraction(1, 2)},
           {4: Fraction(1)}, {3: Fraction(1)}],
    [set(), set(), set(), set(), {"a"}])

# State 1 is the a-state, 2 reaches it surely, 4 never: states 0 and 3
# lie strictly between, at 5/6 and 1/2.
MIXED = MarkovChain(
    5, 0, [{1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)},
           {1: Fraction(1)}, {1: Fraction(1, 2), 2: Fraction(1, 2)},
           {2: Fraction(1, 4), 3: Fraction(1, 2), 4: Fraction(1, 4)},
           {4: Fraction(1)}],
    [set(), {"a"}, set(), set(), set()])


@pytest.mark.parametrize("chain", [coin_chain(), ALL_BOTTOMS_HIT],
                         ids=["coin", "all-bottoms-hit"])
def test_limit_one_solves_nothing(chain, monkeypatch):
    calls = _solve_calls(monkeypatch)
    targets = chain.states_with("a")
    assert unbounded_reach_vector(chain, targets) == [1] * chain.m
    assert reach.min_val_geq(chain, "a", Fraction(1, 2)) is not None
    assert calls and all(not unknowns for unknowns in calls)


def test_solve_gets_only_the_states_strictly_between(monkeypatch):
    calls = _solve_calls(monkeypatch)
    vector = unbounded_reach_vector(MIXED, {1})
    assert vector == reference_unbounded_reach_vector(MIXED, {1})
    assert vector == [Fraction(5, 6), 1, 1, Fraction(1, 2), 0]
    assert reach.min_val_geq(MIXED, "a", Fraction(5, 6)) is None
    assert calls == [{0, 3}, {0, 3}]
