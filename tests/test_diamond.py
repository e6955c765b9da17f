import random
from fractions import Fraction

import pytest

from helpers import random_chain, random_diamond_formula, random_letters
from pltlcheck.diamond import DiamondChecker, ResourceLimitError, format_automaton
from pltlcheck.fixtures import coin_chain
from pltlcheck.formula import (
    parse_formula, size, strip_params, substitute, to_nnf, variables,
)
from pltlcheck.markov import MarkovChain
from pltlcheck.oracle import (
    CERTAIN_FALSE, LassoWord, eval_lasso, eval_prefix, sample_lower_bound,
)


def _line(labels):
    """Deterministic chain walking the labels once, looping on the last."""
    one = Fraction(1)
    m = len(labels)
    rows = [{min(i + 1, m - 1): one} for i in range(m)]
    return MarkovChain(m, 0, rows, [set(l) for l in labels])


def test_pending_bound_discharged_early():
    # The bound is met at the very first state; later states without the
    # proposition must not resurrect the obligation.
    c = MarkovChain(2, 0,
                    [{1: Fraction(1)}, {0: Fraction(4, 7), 1: Fraction(3, 7)}],
                    [{"a", "b"}, {"a"}])
    ck = DiamondChecker(parse_formula("F[<=x] b"))
    assert ck.check_pos(c, {"x": 0})
    assert ck.check_as1(c, {"x": 0})


def test_accepts_lasso_discharged_early():
    word = LassoWord(
        (frozenset({"b"}), frozenset(), frozenset(), frozenset(), frozenset({"b"})),
        (frozenset(),))
    ck = DiamondChecker(parse_formula("F[<=x] b"))
    assert ck.accepts_lasso(word, {"x": 2})
    word2 = LassoWord((frozenset(),), (frozenset(),))
    assert not ck.accepts_lasso(word2, {"x": 5})


def test_coin_chain_queries():
    c = coin_chain()
    ck = DiamondChecker(parse_formula("F[<=x] a"))
    assert not ck.check_pos(c, {"x": 0})
    assert ck.check_pos(c, {"x": 1})
    assert not ck.check_as1(c, {"x": 50})


def test_min_set_and_emptiness():
    c = coin_chain()
    ck = DiamondChecker(parse_formula("F[<=x] a"))
    assert list(ck.min_set(c)) == [(1,)]
    assert not list(ck.min_set(c, threshold="as1"))
    assert not ck.emptiness_pos(c)
    assert ck.emptiness_as1(c)
    line = _line([set(), {"a"}])
    assert list(ck.min_set(line, threshold="as1")) == [(1,)]


def test_emptiness_unreachable():
    one = Fraction(1)
    c = MarkovChain(2, 0, [{0: one}, {1: one}], [set(), {"b"}])
    assert DiamondChecker(parse_formula("F[<=x] b")).emptiness_pos(c)


def test_shared_variable_bound():
    # Both conjuncts read the same variable; the bound must cover the
    # later of the two targets.
    c = _line([set(), {"a"}, set(), {"b"}])
    ck = DiamondChecker(parse_formula("F[<=x] a & F[<=x] b"))
    assert not ck.check_pos(c, {"x": 2})
    assert ck.check_pos(c, {"x": 3})
    assert ck.check_as1(c, {"x": 3})


def test_nested_bounds():
    c = _line([set(), {"a"}, set(), {"b"}])
    ck = DiamondChecker(parse_formula("F[<=x] (a & F[<=y] b)"))
    assert ck.check_pos(c, {"x": 1, "y": 2})
    assert not ck.check_pos(c, {"x": 1, "y": 1})
    assert not ck.check_pos(c, {"x": 0, "y": 5})


def test_accepts_lasso_matches_eval_lasso():
    rng = random.Random(41)
    n = 0
    while n < 150:
        phi = random_diamond_formula(rng, size_budget=5)
        names = variables(phi)
        if not names:
            continue
        word = LassoWord(random_letters(rng, ("a", "b"), rng.randint(0, 4)),
                         random_letters(rng, ("a", "b"), rng.randint(1, 4)))
        val = {x: rng.randint(0, 3) for x in names}
        ck = DiamondChecker(phi)
        ground = to_nnf(substitute(phi, val))
        ref = eval_lasso(word, ground)
        assert ck.accepts_lasso(word, val) == ref, (phi, word, val)
        n += 1


def test_check_pos_respects_sampling_oracle():
    rng = random.Random(42)
    n = 0
    while n < 60:
        phi = random_diamond_formula(rng, size_budget=4)
        names = variables(phi)
        if not names:
            continue
        c = random_chain(rng, max_states=4)
        val = {x: rng.randint(0, 4) for x in names}
        ck = DiamondChecker(phi)
        pos = ck.check_pos(c, val)
        ground = to_nnf(substitute(phi, val))
        frac = sample_lower_bound(c, ground, samples=40, horizon=12, seed=n)
        if frac > 0:
            assert pos, (phi, val)
        if ck.check_as1(c, val):
            assert pos
            # No sampled prefix may already refute the formula.
            for k in range(20):
                prefix = _sample_prefix(c, random.Random(1000 + k), 12)
                assert eval_prefix(prefix, ground) != CERTAIN_FALSE
        n += 1


def _sample_prefix(chain, rng, horizon):
    s = chain.init
    prefix = [chain.labels[s]]
    for _ in range(horizon - 1):
        u = rng.random()
        acc = 0.0
        for t in sorted(chain.successors(s)):
            acc += float(chain.rows[s][t])
            nxt = t
            if u < acc:
                break
        s = nxt
        prefix.append(chain.labels[s])
    return prefix


def test_monotone_in_valuation():
    rng = random.Random(43)
    n = 0
    while n < 60:
        phi = random_diamond_formula(rng, size_budget=4)
        names = variables(phi)
        if not names:
            continue
        c = random_chain(rng, max_states=4)
        lo = {x: rng.randint(0, 3) for x in names}
        hi = {x: lo[x] + rng.randint(0, 3) for x in names}
        ck = DiamondChecker(phi)
        if ck.check_pos(c, lo):
            assert ck.check_pos(c, hi), (phi, lo, hi)
        if ck.check_as1(c, lo):
            assert ck.check_as1(c, hi), (phi, lo, hi)
        n += 1


def test_format_automaton():
    ck = DiamondChecker(parse_formula("F[<=x] a"))
    g_dump = format_automaton(ck.g)
    u_dump = format_automaton(ck.u)
    assert g_dump.startswith("g-automaton states=")
    assert "parametric" in g_dump
    assert u_dump.startswith("u-automaton states=")
    assert "edge" in u_dump


def test_resource_limit():
    c = coin_chain()
    ck = DiamondChecker(parse_formula("F[<=x] a"), max_product_nodes=1)
    with pytest.raises(ResourceLimitError):
        ck.check_pos(c, {"x": 5})


def test_stats_accumulate():
    c = coin_chain()
    ck = DiamondChecker(parse_formula("F[<=x] a"))
    ck.check_pos(c, {"x": 1})
    ck.check_pos(c, {"x": 2})
    assert ck.stats["queries"] == 2
    assert ck.stats["product_nodes"] > 0
