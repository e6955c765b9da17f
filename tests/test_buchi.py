import math
import random
from fractions import Fraction

from helpers import random_chain, reference_min_val_pos_buchi
from pltlcheck import buchi, markov
from pltlcheck.diamond import DiamondChecker
from pltlcheck.fixtures import coin_chain
from pltlcheck.formula import parse_formula, to_nnf
from pltlcheck.markov import MarkovChain, scc_decompose


def _ring(labels):
    """Deterministic cycle over len(labels) states."""
    n = len(labels)
    one = Fraction(1)
    rows = [{(i + 1) % n: one} for i in range(n)]
    return MarkovChain(n, 0, rows, [set(l) for l in labels])


def test_gap_conventions():
    c = _ring([{"a"}, {"a"}, {"a"}])
    comp = set(range(3))
    assert buchi.gap_of_bscc(c, comp, "a") == 0
    c = _ring([{"a"}, set(), {"a"}, set(), set()])
    assert buchi.gap_of_bscc(c, set(range(5)), "a") == 2
    c = _ring([set(), set()])
    assert buchi.gap_of_bscc(c, {0, 1}, "a") == math.inf


def test_accepting_bsccs():
    c = coin_chain()
    acc = buchi.accepting_bsccs(c, "a")
    assert acc == [({1}, 0)]


def test_coin_chain_minima():
    c = coin_chain()
    assert buchi.min_val_pos_buchi(c, "a") == 1
    assert buchi.min_val_as1_buchi(c, "a") is None


def test_ring_minima():
    c = _ring([{"a"}, set(), set()])
    # Longest a-free run has 2 states, both for positivity and certainty.
    assert buchi.min_val_pos_buchi(c, "a") == 2
    assert buchi.min_val_as1_buchi(c, "a") == 2


def test_no_accepting_bscc():
    c = _ring([set(), set()])
    assert buchi.min_val_pos_buchi(c, "a") is None
    assert buchi.min_val_as1_buchi(c, "a") is None


def _brute_c_min(chain, name, component):
    """Exhaustive minimax over simple skeleton paths."""
    from pltlcheck.markov import all_pairs_distance
    dist = all_pairs_distance(chain)
    goal = {s for s in component if name in chain.labels[s]}
    vertices = sorted(chain.states_with(name) | {chain.init})
    best = [math.inf]

    def walk(u, cost, used):
        if cost >= best[0]:
            return
        if u in goal:
            best[0] = cost
            return
        discount = 1 if name in chain.labels[u] else 0
        for v in vertices:
            if v in used or dist[u][v] == math.inf:
                continue
            walk(v, max(cost, dist[u][v] - discount), used | {v})

    walk(chain.init, 0, {chain.init})
    return best[0]


def test_c_min_matches_brute_force():
    rng = random.Random(21)
    n = 0
    while n < 60:
        c = random_chain(rng, max_states=6)
        acc = buchi.accepting_bsccs(c, "a")
        if not acc:
            continue
        for comp, _ in acc:
            got = buchi.c_min(c, "a", comp)
            assert got == _brute_c_min(c, "a", comp)
        n += 1


def _min_val_pos_all_pairs(chain, name):
    """min_val_pos_buchi on the whole distance matrix, with the
    exhaustive c_min."""
    dist = markov.all_pairs_distance(chain)
    best = None
    for comp, gap in buchi.accepting_bsccs(chain, name):
        d0 = min(dist[chain.init][s]
                 for s in comp if name in chain.labels[s])
        n0 = max(gap, _brute_c_min(chain, name, comp)) if gap < d0 else gap
        if best is None or n0 < best:
            best = n0
    return best


def test_min_val_pos_reads_few_distance_rows(monkeypatch):
    # The streak search computes no distance row, and it walks each
    # a-free stretch from the a-state before it, not from every source.
    sources = []
    bfs = markov.distances_from

    def counted(chain, source):
        sources.append(source)
        return bfs(chain, source)

    monkeypatch.setattr(markov, "distances_from", counted)
    rng = random.Random(23)
    n = 0
    while n < 200:
        c = random_chain(rng, max_states=12, props=("a",), label_p=0.6)
        sources.clear()
        got = buchi.min_val_pos_buchi(c, "a")
        assert sources == []
        assert got == _min_val_pos_all_pairs(c, "a"), (c.rows, c.labels)
        n += got is not None
    # A path of 150 states, an a-state every ten, into a ring of 50 with
    # one a-state.
    one = Fraction(1)
    rows = [{s + 1: one} for s in range(199)] + [{150: one}]
    labels = [{"a"} if s in range(10, 151, 10) else set()
              for s in range(200)]
    chain = MarkovChain(200, 0, rows, labels)
    reads = []
    succ = chain.successors

    def counted_successors(s):
        reads.append(s)
        return succ(s)

    chain.successors = counted_successors
    sources.clear()
    assert buchi.min_val_pos_buchi(chain, "a") == 49
    assert sources == []
    assert len(reads) <= 4 * chain.m


def _banded_chain(rng, m, label_p):
    """A transient band whose edges stay within three states of their
    source, with rare jumps into three bottom components of 3-6 states
    (the benchmark's recurrent chains, with one label)."""
    sizes = [rng.randint(3, 6) for _ in range(3)]
    n_trans = m - sum(sizes)
    succ = [None] * m
    labels = [set() for _ in range(m)]
    base = n_trans
    bottom = []
    for size in sizes:
        comp = list(range(base, base + size))
        base += size
        bottom.extend(comp)
        for k, s in enumerate(comp):
            succ[s] = {comp[(k + 1) % size], rng.choice(comp)}
        if rng.random() < 0.8:
            for s in rng.sample(comp, rng.randint(1, size)):
                labels[s].add("a")
    for s in range(n_trans):
        succ[s] = {s + 1 if s < n_trans - 1 else rng.choice(bottom)}
        for _ in range(rng.randint(1, 2)):
            succ[s].add(rng.choice(bottom) if rng.random() < 0.05 else
                        min(n_trans - 1, max(0, s + rng.randint(-3, 3))))
        if rng.random() < label_p:
            labels[s].add("a")
    rows = [{t: Fraction(1, len(ts)) for t in ts} for ts in succ]
    return MarkovChain(m, rng.randrange(n_trans), rows, labels)


def test_min_val_pos_matches_reference_on_banded_chains():
    rng = random.Random(24)
    answers = set()
    for _ in range(120):
        c = _banded_chain(rng, rng.randint(20, 80),
                          rng.choice([0.2, 0.4, 0.6]))
        got = buchi.min_val_pos_buchi(c, "a")
        assert got == reference_min_val_pos_buchi(c, "a"), (c.rows, c.labels)
        answers.add(got)
    # Empty answers and approach costs above every gap both occur.
    assert None in answers and max(a for a in answers if a) > 6


def test_minima_match_general_checker():
    phi = to_nnf(parse_formula("G F[<=x] a"))
    rng = random.Random(22)
    n = 0
    while n < 40:
        c = random_chain(rng, max_states=5)
        ck = DiamondChecker(phi)
        cap = 2 * c.m + 2
        ref_pos = next((k for k in range(cap)
                        if ck.check_pos(c, {"x": k})), None)
        ref_as1 = next((k for k in range(cap)
                        if ck.check_as1(c, {"x": k})), None)
        assert buchi.min_val_pos_buchi(c, "a") == ref_pos
        assert buchi.min_val_as1_buchi(c, "a") == ref_as1
        n += 1


def test_genbuchi_emptiness_and_minima():
    # BSCC containing both labels on a cycle.
    c = _ring([{"a"}, set(), {"b"}])
    assert not buchi.emptiness_pos_genbuchi(c, ["a", "b"])
    assert buchi.emptiness_pos_genbuchi(c, ["a", "c"])
    ms = buchi.min_set_as1_genbuchi(c, [("x", "a"), ("y", "b")], ("x", "y"))
    assert list(ms) == [(2, 2)]
    # Shared variable takes the max of per-conjunct minima.
    ms = buchi.min_set_as1_genbuchi(c, [("x", "a"), ("x", "b")], ("x",))
    assert list(ms) == [(2,)]


def test_genbuchi_min_set_pos():
    c = _ring([{"a"}, set(), {"b"}])
    phi = to_nnf(parse_formula("G F[<=x] a & G F[<=y] b"))
    ck = DiamondChecker(phi)
    ms = buchi.min_set_pos_genbuchi(c, [("x", "a"), ("y", "b")], ck)
    assert list(ms) == [(2, 2)] and ms.names == ("x", "y")
    assert ck.stats["queries"] > 0
    # No BSCC sees b: the graph check decides without a product query.
    c = _ring([{"a"}, set(), set()])
    ck = DiamondChecker(phi)
    ms = buchi.min_set_pos_genbuchi(c, [("x", "a"), ("y", "b")], ck)
    assert len(ms) == 0 and ms.names == ("x", "y")
    assert ck.stats["queries"] == 0
