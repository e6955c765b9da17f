import random
from fractions import Fraction

import pytest

from helpers import random_chain
from pltlcheck import reach
from pltlcheck.fixtures import coin_chain, traffic_chain
from pltlcheck.markov import MarkovChain, bounded_reach_prob


def test_coin_chain_minima():
    c = coin_chain()
    assert reach.min_val_pos(c, "a") == 1
    assert reach.min_val_as1(c, "a") is None
    assert reach.min_val_geq(c, "a", Fraction(3, 4)) == 2
    assert reach.min_val_geq(c, "a", Fraction(15, 16)) == 4


def test_traffic_chain_minima():
    t = traffic_chain()
    assert reach.min_val_pos(t, "r") == 2
    assert reach.min_val_pos(t, "g") == 14
    assert reach.min_val_as1(t, "r") == 5
    assert reach.min_val_as1(t, "g") == 20


def test_unreachable_label():
    one = Fraction(1)
    c = MarkovChain(2, 0, [{0: one}, {1: one}], [set(), {"a"}])
    assert reach.min_val_pos(c, "a") is None
    assert reach.min_val_as1(c, "a") is None
    assert reach.min_val_geq(c, "a", Fraction(1, 2)) is None


def test_initial_state_labeled():
    c = MarkovChain(1, 0, [{0: Fraction(1)}], [{"a"}])
    assert reach.min_val_pos(c, "a") == 0
    assert reach.min_val_as1(c, "a") == 0


def test_boundary_threshold():
    # mu_inf = 1/2 reached after finitely many steps: 0 -> {1, 2} once.
    one = Fraction(1)
    c = MarkovChain(3, 0,
                    [{1: Fraction(1, 2), 2: Fraction(1, 2)},
                     {1: one}, {2: one}],
                    [set(), {"a"}, set()])
    assert reach.min_val_geq(c, "a", Fraction(1, 2)) == 1
    assert reach.min_val_geq(c, "a", Fraction(2, 3)) is None
    # Coin chain approaches 1 strictly from below: >= 1 is unattainable
    # but every p < 1 is.
    assert reach.min_val_geq(coin_chain(), "a", Fraction(99, 100)) == 7


def test_boundary_threshold_with_a_cycle_behind_the_target():
    # mu_n = 1/2 from n = 1 on.  The cycle 3 <-> 4 reaches the target,
    # but only through it, so it does not delay mu.
    half, one = Fraction(1, 2), Fraction(1)
    c = MarkovChain(5, 0,
                    [{1: half, 2: half}, {3: one}, {2: one},
                     {4: half, 1: half}, {3: one}],
                    [set(), {"a"}, set(), set(), set()])
    assert reach.min_val_geq(c, "a", half) == 1
    assert reach.check_geq(c, "a", half, 1)


def test_geq_input_validation():
    c = coin_chain()
    with pytest.raises(reach.ReachError):
        reach.min_val_geq(c, "a", Fraction(0))
    with pytest.raises(reach.ReachError):
        reach.min_val_geq(c, "a", Fraction(1))


def test_check_wrappers():
    c = coin_chain()
    assert reach.check_pos(c, "a", 1)
    assert not reach.check_pos(c, "a", 0)
    assert not reach.check_as1(c, "a", 50)
    assert reach.check_geq(c, "a", Fraction(1, 2), 1)
    assert not reach.check_geq(c, "a", Fraction(3, 4), 1)
    # mu_1 already meets 1/2: the walk stops there, not after 10^8 steps.
    assert reach.check_geq(c, "a", Fraction(1, 2), 10 ** 8)


def _brute_min_pos(chain, name, cap=40):
    targets = chain.states_with(name)
    for n in range(cap + 1):
        if bounded_reach_prob(chain, targets, n) > 0:
            return n
    return None


def _brute_min_as1(chain, name, cap=40):
    targets = chain.states_with(name)
    for n in range(cap + 1):
        if bounded_reach_prob(chain, targets, n) == 1:
            return n
    return None


def test_minima_match_probability_scan():
    rng = random.Random(7)
    for _ in range(80):
        c = random_chain(rng)
        for name in ("a", "b"):
            got = reach.min_val_pos(c, name)
            assert got == _brute_min_pos(c, name)
            got1 = reach.min_val_as1(c, name)
            ref1 = _brute_min_as1(c, name)
            if got1 is None:
                # The scan is finite; certify no n up to the cap works.
                assert ref1 is None
            else:
                assert got1 == ref1


def test_geq_matches_probability_scan():
    rng = random.Random(8)
    for _ in range(40):
        c = random_chain(rng)
        p = Fraction(rng.randint(1, 9), 10)
        targets = c.states_with("a")
        got = reach.min_val_geq(c, "a", p)
        ref = None
        for n in range(40):
            met = bounded_reach_prob(c, targets, n) >= p
            assert reach.check_geq(c, "a", p, n) == met
            if met:
                ref = n
                break
        if got is not None and got < 40:
            assert got == ref
        else:
            assert ref is None
