"""Seeded random generators shared by the test modules."""

import random
from fractions import Fraction

from pltlcheck.formula import (
    And, Atom, BoundedEventually, Eventually, NegAtom, Next, Or, VarBound,
)
from pltlcheck.markov import MarkovChain


def random_chain(rng, max_states=6, props=("a", "b"), label_p=0.4):
    """A random labeled chain with small-denominator exact probabilities."""
    m = rng.randint(1, max_states)
    rows = []
    for s in range(m):
        k = rng.randint(1, min(3, m))
        succs = rng.sample(range(m), k)
        weights = [rng.randint(1, 4) for _ in succs]
        total = sum(weights)
        rows.append({t: Fraction(w, total) for t, w in zip(succs, weights)})
    labels = [{p for p in props if rng.random() < label_p} for _ in range(m)]
    return MarkovChain(m, rng.randrange(m), rows, labels)


def random_fx_formula(rng, props=("a", "b"), depth=3, counter=None):
    """Random formula in the next/eventually fragment."""
    if counter is None:
        counter = [0]

    def lit():
        name = rng.choice(props)
        return Atom(name) if rng.random() < 0.7 else NegAtom(name)

    def build(d):
        roll = rng.random()
        if d <= 0 or roll < 0.25:
            return lit()
        if roll < 0.35:
            return Eventually(build(d - 1))
        if roll < 0.45:
            counter[0] += 1
            return BoundedEventually(VarBound("x%d" % counter[0]),
                                     build(d - 1))
        if roll < 0.6:
            return Next(build(d - 1))
        if roll < 0.8:
            return And(build(d - 1), build(d - 1))
        return Or(build(d - 1), build(d - 1))

    phi = build(depth)
    return phi


def random_diamond_formula(rng, props=("a", "b"), size_budget=4, counter=None):
    """Random bounded-eventually formula with a small node budget."""
    if counter is None:
        counter = [0]

    def lit():
        name = rng.choice(props)
        return Atom(name) if rng.random() < 0.7 else NegAtom(name)

    def build(budget):
        if budget <= 1 or rng.random() < 0.3:
            return lit()
        roll = rng.random()
        if roll < 0.45:
            counter[0] += 1
            return BoundedEventually(VarBound("x%d" % counter[0]),
                                     build(budget - 1))
        if roll < 0.6:
            return Next(build(budget - 1))
        half = (budget - 1) // 2 + 1
        if roll < 0.8:
            return And(build(half), build(half))
        return Or(build(half), build(half))

    return build(size_budget)


def random_letters(rng, props, length):
    return tuple(frozenset(p for p in props if rng.random() < 0.5)
                 for _ in range(length))
