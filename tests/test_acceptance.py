"""End-to-end acceptance checks, one criterion per test.

Each test prints a single pass line on success; references are
independent brute-force or sampling computations, never the engine
under test.
"""

import math
import random
import time
from fractions import Fraction

from helpers import (
    ergodicity_coefficient, lasso_chain, random_chain, random_diamond_formula,
    random_letters,
)
from pltlcheck import buchi, fx, reach
from pltlcheck.diamond import DiamondChecker
from pltlcheck.fixtures import coin_chain, traffic_chain
from pltlcheck.formula import (
    FragmentClass, classify, parse_formula, size, substitute, to_nnf,
    variables,
)
from pltlcheck.markov import (
    ChainError, all_pairs_distance, bounded_reach_prob, scc_decompose,
    transient_matrix,
)
from pltlcheck.oracle import (
    LassoWord, brute_force_min_set, eval_lasso, gen_3sat_fixture,
    sat_brute_force,
)
from pltlcheck.valuation import bisection_min_set


def _report(num, text):
    print("criterion %d (%s): pass" % (num, text))


def _assert_cardinality_bound(ms, bound, d):
    """Antichain size bound (bound * d)^(d-1) for d >= 2."""
    if d >= 2:
        assert len(ms) <= (bound * d) ** (d - 1), (len(ms), bound, d)


def test_criterion_01_example1_exact_thresholds():
    start = time.monotonic()
    c = coin_chain()
    for k in range(1, 21):
        p = 1 - Fraction(1, 2 ** k)
        assert reach.min_val_geq(c, "a", p) == k
    assert time.monotonic() - start < 1.0
    _report(1, "two-state chain threshold minima exact for k=1..20")


def test_criterion_02_example1_qualitative():
    start = time.monotonic()
    c = coin_chain()
    assert reach.min_val_pos(c, "a") == 1
    assert reach.min_val_as1(c, "a") is None
    assert time.monotonic() - start < 1.0
    _report(2, "two-state chain positive minimum 1, almost-sure empty")


def test_criterion_03_antichain_of_16():
    start = time.monotonic()
    chain = traffic_chain()
    phi = parse_formula("F[<=x1] r & F[<=x2] b & F[<=x3] g")
    names = ("x1", "x2", "x3")
    ck = DiamondChecker(phi)

    def oracle(point):
        return ck.check_pos(chain, dict(zip(names, point)))

    ms = bisection_min_set(oracle, (0, 0, 0), (21, 21, 21), names)
    assert len(ms) == 16
    _assert_cardinality_bound(ms, 21, 3)
    ref = brute_force_min_set(chain, phi, 21,
                              lambda v: ck.check_pos(chain, v))
    assert sorted(ms) == sorted(ref)
    _assert_cardinality_bound(ref, 21, 3)
    assert time.monotonic() - start < 60.0
    _report(3, "three-signal antichain has exactly the 16 brute-force points")


def test_criterion_04_cnf_reduction_soundness():
    start = time.monotonic()
    rng = random.Random(104)
    count = 0
    while count < 520:
        n_vars = rng.randint(1, 4)
        n_clauses = rng.randint(1, 6)
        clauses = []
        for _ in range(n_clauses):
            k = rng.randint(1, 3)
            chosen = rng.sample(range(1, n_vars + 1), min(k, n_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        chain, phi = gen_3sat_fixture(clauses, n_vars)
        empty, _, _ = fx.emptiness_pos_fx(chain, phi)
        assert (not empty) == sat_brute_force(clauses, n_vars), clauses
        count += 1
    assert time.monotonic() - start < 120.0
    _report(4, "520 CNF fixtures agree with brute-force satisfiability")


def test_criterion_05_cross_engine_agreement():
    start = time.monotonic()
    rng = random.Random(105)
    ck_reach = DiamondChecker(parse_formula("F[<=x] a"))
    ck_buchi = DiamondChecker(parse_formula("G F[<=x] a"))
    for _ in range(200):
        c = random_chain(rng, max_states=6)
        for n in range(7):
            assert reach.check_pos(c, "a", n) == ck_reach.check_pos(c, {"x": n})
            assert reach.check_as1(c, "a", n) == ck_reach.check_as1(c, {"x": n})
            assert buchi.check_pos(c, "a", n) == ck_buchi.check_pos(c, {"x": n})
            assert buchi.check_as1(c, "a", n) == ck_buchi.check_as1(c, {"x": n})
    assert time.monotonic() - start < 300.0
    _report(5, "reach/buchi engines agree with the product engine on "
               "200 chains, both thresholds, bounds 0..6")


def test_criterion_06_witness_bound_property():
    rng = random.Random(106)
    done = 0
    while done < 100:
        phi = random_diamond_formula(rng, size_budget=4)
        nnf = to_nnf(phi)
        names = variables(nnf)
        if len(names) != 1 or size(nnf) > 4:
            continue
        c = random_chain(rng, max_states=3)
        ck = DiamondChecker(phi)
        if classify(nnf) == FragmentClass.FX:
            empty, _, _ = fx.emptiness_pos_fx(c, phi)
            vbar = c.m * size(nnf)
        else:
            empty = ck.emptiness(c, "pos")
            vbar = ck.vbar(c)
        x = names[0]
        exists = any(ck.check_pos(c, {x: k}) for k in range(2 * vbar + 1))
        assert (not empty) == exists, (phi, c.rows, c.labels)
        done += 1
    _report(6, "emptiness at the witness bound matches brute-force "
               "existence over twice the bound on 100 instances")


def test_criterion_07_monotonicity():
    rng = random.Random(107)
    done = 0
    while done < 200:
        phi = random_diamond_formula(rng, size_budget=4)
        names = variables(phi)
        if not names:
            continue
        c = random_chain(rng, max_states=4)
        lo = {x: rng.randint(0, 4) for x in names}
        hi = {x: lo[x] + rng.randint(0, 4) for x in names}
        ck = DiamondChecker(phi)
        if ck.check_pos(c, lo):
            assert ck.check_pos(c, hi), (phi, lo, hi)
        done += 1
    _report(7, "positive verdicts are monotone over 200 valuation pairs")


def _brute_minimax(chain, name, component):
    """Simple-path minimax of gap costs from init to the component."""
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


def test_criterion_08_minimax_path_cost():
    rng = random.Random(108)
    done = 0
    while done < 100:
        c = random_chain(rng, max_states=8)
        acc = buchi.accepting_bsccs(c, "a")
        if not acc:
            continue
        for comp, _ in acc:
            assert buchi.c_min(c, "a", comp) == _brute_minimax(c, "a", comp)
        done += 1
    _report(8, "minimax path cost matches exhaustive simple-path search "
               "on 100 graphs")


def _strongly_connected_chain(rng):
    while True:
        c = random_chain(rng, max_states=6)
        if len(scc_decompose(c).components) == 1:
            return c


def _longest_label_free_run(chain, name):
    """Longest simple run of label-free states; inf on a free cycle."""
    free = {s for s in range(chain.m) if name not in chain.labels[s]}
    best = [0]

    def walk(u, depth, used):
        best[0] = max(best[0], depth)
        for t in chain.successors(u):
            if t not in free:
                continue
            if t in used:
                best[0] = math.inf
                return
            walk(t, depth + 1, used | {t})
            if best[0] == math.inf:
                return

    for s in free:
        walk(s, 1, {s})
        if best[0] == math.inf:
            break
    return best[0]


def test_criterion_09_single_bscc_dichotomy():
    rng = random.Random(109)
    for _ in range(50):
        c = _strongly_connected_chain(rng)
        run = _longest_label_free_run(c, "a")
        for n in range(11):
            expect = run != math.inf and n >= run
            assert buchi.check_as1(c, "a", n) == expect, (c.rows, n)
            assert buchi.check_pos(c, "a", n) == expect, (c.rows, n)
    _report(9, "single-component chains flip both verdicts exactly at "
               "the longest label-free run")


def test_criterion_10_lasso_language_check():
    rng = random.Random(110)
    done = 0
    while done < 100:
        phi = random_diamond_formula(rng, size_budget=5)
        nnf = to_nnf(phi)
        if size(nnf) > 5:
            continue
        names = variables(nnf)
        val = {x: rng.randint(0, 3) for x in names}
        word = LassoWord(random_letters(rng, ("a", "b"), rng.randint(0, 4)),
                         random_letters(rng, ("a", "b"), rng.randint(1, 4)))
        ck = DiamondChecker(phi)
        ground = to_nnf(substitute(phi, val)) if val else nnf
        assert ck.check_pos(lasso_chain(word), val) == \
            eval_lasso(word, ground), (phi, word, val)
        done += 1
    _report(10, "positive probability on the lasso's chain equals direct "
                "evaluation on 100 words")


def test_criterion_11_transient_bound_invariant():
    # The coefficient is taken of the collapsed chain with the absorbing
    # target included; there it reduces to the largest transient row sum
    # and the geometric envelope argument goes through.
    rng = random.Random(111)
    done = 0
    while done < 50:
        c = random_chain(rng, max_states=6, label_p=0.6)
        targets = c.states_with("a")
        if not targets or c.init in targets:
            continue
        _, q, r = transient_matrix(c, targets)
        if not q:
            continue
        collapsed = [row + [ri] for row, ri in zip(q, r)]
        collapsed.append([Fraction(0)] * len(q) + [Fraction(1)])
        try:
            gamma = ergodicity_coefficient(collapsed)
        except ChainError:
            continue
        if not 0 < gamma < 1:
            continue
        b = max(r)
        for n in range(21):
            mu = bounded_reach_prob(c, targets, n + 1)
            assert mu <= b * (1 - gamma ** (n + 1)) / (1 - gamma), (c.rows, n)
        done += 1
    _report(11, "bounded reachability stays under the geometric envelope "
                "on 50 chains, n up to 20")


def test_criterion_12_antichain_cardinality_bound():
    rng = random.Random(112)
    phi = parse_formula("F[<=x] a & F[<=y] b")
    names = ("x", "y")
    bound = 8
    for _ in range(20):
        c = random_chain(rng, max_states=5)
        ck = DiamondChecker(phi)

        def oracle(point):
            return ck.check_pos(c, dict(zip(names, point)))

        ms = bisection_min_set(oracle, (0, 0), (bound, bound), names)
        _assert_cardinality_bound(ms, bound, 2)
    _report(12, "every computed antichain respects the cardinality bound")
