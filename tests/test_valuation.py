import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import valuation_leq
from pltlcheck.valuation import (
    MinimalSet, Valuation, ValuationError, bisection_min_set,
    parse_valuation,
)


def test_valuation_basics():
    v = parse_valuation("y=5, x=3")
    assert v.names == ("x", "y")
    assert v["x"] == 3 and v["y"] == 5
    assert str(v) == "x=3,y=5"
    assert v == Valuation({"x": 3, "y": 5})


def test_valuation_order():
    a = Valuation({"x": 1, "y": 4})
    b = Valuation({"x": 2, "y": 4})
    assert valuation_leq(a, b) and not valuation_leq(b, a)
    with pytest.raises(ValuationError):
        valuation_leq(a, Valuation({"z": 0, "y": 0}))


def test_parse_valuation_errors():
    for bad in ("x", "x=", "=3", "x=-1", "x=1,x=2", "x=1.5"):
        with pytest.raises(ValuationError):
            parse_valuation(bad)


def test_minimal_set_insert_and_member():
    ms = MinimalSet(("x", "y"))
    assert ms.insert((2, 3))
    assert not ms.insert((3, 3))       # dominated
    assert ms.insert((1, 5))
    assert ms.insert((0, 9))
    assert list(ms) == [(0, 9), (1, 5), (2, 3)]
    assert ms.member((2, 3)) and ms.member((5, 5))
    assert not ms.member((1, 4))
    # A dominating insert evicts.
    assert ms.insert((0, 4))
    assert list(ms) == [(0, 4), (2, 3)]
    # Zero variables: the empty set holds nothing, the origin everything.
    assert not MinimalSet(()).member(())
    assert MinimalSet((), [()]).member(())


def _reference_min_set(oracle, lo, hi):
    out = []
    for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if oracle(p) and not any(all(a <= b for a, b in zip(q, p))
                                 for q in out):
            out.append(p)
    return sorted(out)


def test_bisection_matches_brute_force():
    rng = random.Random(11)
    for trial in range(60):
        d = rng.randint(1, 3)
        hi = tuple(rng.randint(0, 8) for _ in range(d))
        k = rng.randint(0, 3)
        thresholds = [tuple(rng.randint(0, h) for h in hi) for _ in range(k)]

        def oracle(p):
            return any(all(a <= b for a, b in zip(t, p)) for t in thresholds)

        names = tuple("x%d" % i for i in range(d))
        got = bisection_min_set(oracle, (0,) * d, hi, names)
        assert list(got) == _reference_min_set(oracle, (0,) * d, hi)


def test_bisection_monotone_halfspace():
    # Single linear threshold in 2d.
    def oracle(p):
        return 2 * p[0] + p[1] >= 10

    got = bisection_min_set(oracle, (0, 0), (20, 20), ("x", "y"))
    assert list(got) == _reference_min_set(oracle, (0, 0), (20, 20))


def test_bisection_empty_and_everything():
    got = bisection_min_set(lambda p: False, (0, 0), (9, 9), ("x", "y"))
    assert len(got) == 0
    got = bisection_min_set(lambda p: True, (0, 0), (9, 9), ("x", "y"))
    assert list(got) == [(0, 0)]


def _up_closure(generators):
    """Monotone predicate: is the point above one of the generators?"""
    def member(p):
        return any(all(a <= b for a, b in zip(g, p)) for g in generators)
    return member


def _counted(predicate, lo, hi):
    """`predicate` as an oracle that checks its argument lies in [lo, hi]
    and records every point it is asked."""
    asked = []

    def oracle(p):
        assert all(l <= a <= h for l, a, h in zip(lo, p, hi)), (p, lo, hi)
        asked.append(p)
        return predicate(p)
    return oracle, asked


@st.composite
def _monotone_queries(draw):
    """(lo, hi, generators): a box, possibly empty or away from the origin,
    and a union of 0-5 up-sets."""
    d = draw(st.integers(1, 4))
    lo = tuple(draw(st.integers(0, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(-1, 7 - d)) for l in lo)
    generators = draw(st.lists(st.tuples(*[st.integers(0, 9)] * d),
                               max_size=5))
    return lo, hi, generators


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_monotone_queries())
def test_search_matches_brute_force_and_asks_each_point_once(query):
    lo, hi, generators = query
    member = _up_closure(generators)
    oracle, asked = _counted(member, lo, hi)
    names = tuple("x%d" % i for i in range(len(lo)))
    got = bisection_min_set(oracle, lo, hi, names)
    assert list(got) == _reference_min_set(member, lo, hi)
    assert len(asked) == len(set(asked))


def test_search_calls_on_traffic_front():
    # The antichain of the traffic r/b query in its witness box.
    front = [(2, 10), (3, 9), (4, 8), (5, 7)]
    hi = (315, 315)
    oracle, asked = _counted(_up_closure(front), (0, 0), hi)
    got = bisection_min_set(oracle, (0, 0), hi, ("x", "y"))
    assert list(got) == front
    assert len(asked) <= 60


def test_search_calls_on_small_front_in_large_box():
    # Small minimal values in W1's witness box {0..504}^3.
    front = [(2, 9, 11), (3, 7, 12), (4, 8, 10), (5, 6, 9), (6, 10, 8)]
    hi = (504, 504, 504)
    oracle, asked = _counted(_up_closure(front), (0, 0, 0), hi)
    start = time.perf_counter()
    got = bisection_min_set(oracle, (0, 0, 0), hi, ("x", "y", "z"))
    assert time.perf_counter() - start < 1.0
    assert list(got) == sorted(front)
    assert len(asked) <= 150
