import math
import random
from fractions import Fraction

import pytest

from helpers import random_chain
from pltlcheck.fixtures import chain_text, coin_chain, coin_chain_text
from pltlcheck.markov import (
    ChainError, ChainParseError, MarkovChain, all_pairs_distance,
    bounded_reach_prob, dag_order, distances_from, ergodicity_coefficient,
    parse_chain,
    reachable_states, scc_decompose, states_reaching, transient_matrix,
    unbounded_reach_prob,
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


def test_row_sum_validation():
    with pytest.raises(ChainError):
        MarkovChain(1, 0, [{0: Fraction(1, 2)}], [set()])
    with pytest.raises(ChainError):
        MarkovChain(2, 0, [{0: Fraction(1)}, {}], [set(), set()])


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


def test_dag_order():
    succ = {0: [1, 2], 1: [3], 2: [3], 3: [3]}.get
    order = dag_order({0, 1, 2}, succ)
    # Vertex 3 lies outside, so its self-loop does not count.
    assert sorted(order) == [0, 1, 2]
    assert order.index(0) > order.index(1) and order.index(0) > order.index(2)
    assert dag_order({0, 1, 2, 3}, succ) is None
    assert dag_order({1, 2}, {1: [2], 2: [1]}.get) is None
    assert dag_order(set(), succ) == []
