import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    nnf_formulas, random_chain, random_diamond_formula, random_letters,
)
from pltlcheck import diamond, fx, oracle
from pltlcheck.fixtures import coin_chain
from pltlcheck.formula import (
    Always, Atom, BoundedAlways, BoundedEventually, ConstBound, Eventually,
    FormulaError, Next, parse_formula, substitute, to_nnf, variables,
)
from pltlcheck.oracle import (
    CERTAIN_FALSE, CERTAIN_TRUE, UNKNOWN, LassoWord, brute_force_min_set,
    eval_lasso, eval_prefix, gen_3sat_fixture, parse_dimacs,
    sample_lower_bound, sat_brute_force,
)


def _f(text):
    return to_nnf(parse_formula(text))


def test_eval_prefix_basics():
    assert eval_prefix([{"a"}], _f("a")) == CERTAIN_TRUE
    assert eval_prefix([{"a"}], _f("!a")) == CERTAIN_FALSE
    assert eval_prefix([set()], _f("F a")) == UNKNOWN
    assert eval_prefix([set(), {"a"}], _f("F a")) == CERTAIN_TRUE
    assert eval_prefix([{"a"}], _f("G a")) == UNKNOWN
    assert eval_prefix([{"a"}, set()], _f("G a")) == CERTAIN_FALSE
    assert eval_prefix([set(), set()], _f("F[<=2] a")) == UNKNOWN
    assert eval_prefix([set(), set(), set()], _f("F[<=2] a")) == CERTAIN_FALSE
    assert eval_prefix([set(), set(), {"a"}], _f("F[<=2] a")) == CERTAIN_TRUE


def test_eval_lasso_basics():
    word = LassoWord((frozenset(),), (frozenset({"a"}), frozenset()))
    assert eval_lasso(word, _f("G F a"))
    assert not eval_lasso(word, _f("G a"))
    assert eval_lasso(word, _f("F[<=1] a"))
    assert not eval_lasso(word, _f("a U b"))
    word2 = LassoWord((), (frozenset({"a", "b"}),))
    assert eval_lasso(word2, _f("a U b"))
    assert eval_lasso(word2, _f("G[<=3] a"))


def test_eval_lasso_of_a_deep_formula():
    # 5,000 nested operators, built without the parser, are far deeper
    # than the interpreter's recursion limit.  On (a, {})^omega the a's
    # lie at even positions: X^n a holds for even n, G F X^n a always
    # and G X^n a never; F a holds everywhere, and so does every G and F
    # stacked over it.
    word = LassoWord((), (frozenset({"a"}), frozenset()))
    for n in (4999, 5000):
        phi = Atom("a")
        for _ in range(n):
            phi = Next(phi)
        assert eval_lasso(word, phi) == (n % 2 == 0)
        assert eval_lasso(word, Always(Eventually(phi)))
        assert not eval_lasso(word, Always(phi))
    phi = Atom("a")
    for i in range(5000):
        phi = (Eventually, Always)[i % 2](phi)
    assert eval_lasso(word, phi)


def _letter(word, i):
    """Letter i of stem + loop^omega."""
    if i < len(word.stem):
        return word.stem[i]
    return word.loop[(i - len(word.stem)) % len(word.loop)]


def test_bounded_windows_match_the_plain_walk():
    # X^k F[<=c] a and X^k G[<=c] a read the window of positions k..k+c,
    # walked here letter by letter; c runs past the loop and round it.
    rng = random.Random(52)
    for _ in range(500):
        word = LassoWord(random_letters(rng, ("a",), rng.randint(0, 4)),
                         random_letters(rng, ("a",), rng.randint(1, 4)))
        n = len(word.stem) + len(word.loop)
        c, k = rng.randint(0, 2 * n + 1), rng.randint(0, n)
        window = ["a" in _letter(word, i) for i in range(k, k + c + 1)]
        for op, expected in ((BoundedEventually, any(window)),
                             (BoundedAlways, all(window))):
            phi = op(ConstBound(c), Atom("a"))
            for _ in range(k):
                phi = Next(phi)
            assert eval_lasso(word, phi) == expected, (word, op, c, k)


def test_eval_lasso_of_a_long_loop():
    # A 10,000-letter loop with one a, at its end: each window costs one
    # pass over the loop, not c + 1 steps per position.
    word = LassoWord((), (frozenset(),) * 9999 + (frozenset({"a"}),))
    start = time.perf_counter()
    assert not eval_lasso(word, _f("F[<=100000] b"))
    assert eval_lasso(word, _f("G[<=100000] !b"))
    assert eval_lasso(word, _f("F[<=9999] a"))
    assert not eval_lasso(word, _f("F[<=9998] a"))
    assert not eval_lasso(word, _f("X G[<=9998] !a"))
    assert time.perf_counter() - start < 1


def test_lasso_requires_loop():
    with pytest.raises(ValueError):
        LassoWord((frozenset(),), ())


def test_prefix_and_lasso_agree():
    rng = random.Random(51)
    n = 0
    while n < 200:
        phi = random_diamond_formula(rng, size_budget=5)
        val = {x: rng.randint(0, 3) for x in variables(phi)}
        ground = to_nnf(substitute(phi, val)) if val else to_nnf(phi)
        word = LassoWord(random_letters(rng, ("a", "b"), rng.randint(0, 3)),
                         random_letters(rng, ("a", "b"), rng.randint(1, 3)))
        prefix = list(word.stem) + list(word.loop) * 6
        verdict = eval_prefix(prefix, ground)
        if verdict != UNKNOWN:
            assert (verdict == CERTAIN_TRUE) == eval_lasso(word, ground)
        n += 1


LETTERS = st.frozensets(st.sampled_from("ab"))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(nnf_formulas(max_leaves=5), st.lists(LETTERS, max_size=3),
       st.lists(LETTERS, min_size=1, max_size=3), st.integers(0, 3),
       st.integers(1, 10))
def test_short_prefixes_agree_with_the_lasso(phi, stem, loop, v, length):
    # Every node kind, on prefixes of any length: windows of F[<=c] and
    # G[<=c] that run past the prefix, and U, R, F, G filled from the
    # last position back.
    ground = substitute(phi, dict.fromkeys(variables(phi), v))
    word = LassoWord(tuple(stem), tuple(loop))
    verdict = eval_prefix((stem + loop * length)[:length], ground)
    if verdict != UNKNOWN:
        assert (verdict == CERTAIN_TRUE) == eval_lasso(word, ground)


def test_sample_lower_bound_deterministic():
    c = coin_chain()
    phi = _f("F[<=3] a")
    a = sample_lower_bound(c, phi, samples=200, horizon=8, seed=9)
    b = sample_lower_bound(c, phi, samples=200, horizon=8, seed=9)
    assert a == b
    assert 0 < a <= 1
    assert sample_lower_bound(c, _f("F[<=3] b"), 50, 8, 9) == 0
    with pytest.raises(ValueError):
        sample_lower_bound(c, phi, 10, 0, 9)


def test_brute_force_min_set():
    c = coin_chain()
    phi = parse_formula("F[<=x] a")
    ck = diamond.DiamondChecker(phi)
    ms = brute_force_min_set(c, phi, 5, lambda v: ck.check_pos(c, v))
    assert list(ms) == [(1,)]
    with pytest.raises(FormulaError):
        brute_force_min_set(c, parse_formula("F a"), 5, lambda v: True)


def test_gen_3sat_fixture_sat():
    clauses = [[1, 2], [-1, 2], [1, -2]]
    assert sat_brute_force(clauses, 2)
    chain, phi = gen_3sat_fixture(clauses, 2)
    empty, _, _ = fx.emptiness_pos_fx(chain, phi)
    assert not empty


def test_gen_3sat_fixture_unsat():
    clauses = [[1], [-1]]
    assert not sat_brute_force(clauses, 1)
    chain, phi = gen_3sat_fixture(clauses, 1)
    empty, _, _ = fx.emptiness_pos_fx(chain, phi)
    assert empty
    # The small unsatisfiable instance is also in reach of the general
    # engine at its witness bound.
    assert diamond.DiamondChecker(phi).emptiness(chain, "pos")


def test_gen_3sat_validation():
    with pytest.raises(ValueError):
        gen_3sat_fixture([], 1)
    with pytest.raises(ValueError):
        gen_3sat_fixture([[3]], 2)
    with pytest.raises(ValueError):
        gen_3sat_fixture([[0]], 1)


def test_parse_dimacs():
    text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    clauses, n_vars = parse_dimacs(text)
    assert n_vars == 3
    assert clauses == [[1, -2], [2, 3]]
    with pytest.raises(ValueError):
        parse_dimacs("1 -2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf x\n")
