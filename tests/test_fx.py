import io
import random
from fractions import Fraction

from helpers import random_chain, random_fx_formula
from pltlcheck import cli, fx
from pltlcheck.diamond import DiamondChecker
from pltlcheck.fixtures import chain_text, coin_chain
from pltlcheck.formula import (
    parse_formula, size, strip_params, substitute, to_nnf, variables,
)
from pltlcheck.markov import MarkovChain
from pltlcheck.oracle import CERTAIN_TRUE, eval_prefix


def _line(word):
    """A chain reading `word` once, then resting in an unlabelled sink."""
    one = Fraction(1)
    n = len(word)
    return MarkovChain(n + 1, 0, [{min(i + 1, n): one} for i in range(n + 1)],
                       [set(l) for l in word] + [set()])


def _accepts(text, word):
    """Does the search satisfy the formula within the finite word?"""
    empty, _, path = fx.emptiness_pos_fx(_line(word), parse_formula(text))
    return not empty and len(path) <= len(word)


def test_search_splits_disjunctions():
    text = "(a | b) & X (c | d)"
    for first in ("a", "b"):
        for second in ("c", "d"):
            assert _accepts(text, [{first}, {second}])
    assert not _accepts(text, [{"c"}, {"d"}])
    assert _accepts("F (a | b)", [set(), {"b"}])


def test_search_literal():
    assert _accepts("a", [{"a"}])
    assert not _accepts("a", [set()])


def test_search_eventually():
    assert _accepts("F a", [set(), set(), {"a"}])
    assert not _accepts("F a", [set()] * 5)


def test_search_next_and_conjunction():
    assert _accepts("a & X b", [{"a"}, {"b"}])
    assert not _accepts("a & X b", [{"a"}, {"a"}])
    assert not _accepts("a & X b", [{"b"}, {"b"}])


def test_search_guarded_eventually():
    assert _accepts("F (a & F b)", [set(), {"a"}, set(), {"b"}])
    assert _accepts("F (a & F b)", [{"a", "b"}])
    assert not _accepts("F (a & F b)", [{"b"}, set(), {"a"}])


def test_search_covers_next_under_eventually():
    # The shape the former automaton builder rejected.
    assert _accepts("F (a & X b)", [set(), {"a"}, {"b"}])
    assert not _accepts("F (a & X b)", [{"a"}, {"a"}, set(), {"b"}])


def test_search_random_words_match_prefix_oracle():
    rng = random.Random(31)
    shapes = ["F (a & F b)", "F a & F b", "X (a & F b)", "F F a",
              "a & X F (b & F a)", "F (a & F (b & F a))",
              "F (a & X b)", "F (a | X b)", "X (a | F b)"]
    for text in shapes:
        phi = to_nnf(parse_formula(text))
        for _ in range(200):
            word = [frozenset(p for p in ("a", "b") if rng.random() < 0.5)
                    for _ in range(rng.randint(1, 8))]
            ref = eval_prefix(word, phi) == CERTAIN_TRUE
            assert _accepts(text, word) == ref, (text, word)


def test_witness_paths_satisfy_formula():
    rng = random.Random(33)
    nonempty = 0
    for _ in range(300):
        phi = random_fx_formula(rng, depth=3)
        c = random_chain(rng, max_states=4)
        empty, _, path = fx.emptiness_pos_fx(c, phi)
        if empty:
            continue
        nonempty += 1
        assert path[0] == c.init
        assert all(t in c.successors(s) for s, t in zip(path, path[1:]))
        prefix = [c.labels[s] for s in path]
        assert eval_prefix(prefix, to_nnf(strip_params(phi))) == CERTAIN_TRUE
    assert nonempty > 100


def test_witness_path_breaks_ties_by_state_number():
    half, one = Fraction(1, 2), Fraction(1)
    c = MarkovChain(3, 0, [{2: half, 1: half}, {1: one}, {2: one}],
                    [set(), {"a", "b"}, {"a", "b"}])
    for text in ("F[<=x] a", "X (b | a)", "F[<=x] b & F[<=y] a"):
        assert fx.emptiness_pos_fx(c, parse_formula(text))[2] == [0, 1]


def test_search_node_cap(tmp_path):
    chain = tmp_path / "coin.dtmc"
    chain.write_text(chain_text(coin_chain()))
    argv = ["check", "--chain", str(chain), "--formula", "F[<=x] (a | X b)"]
    err = io.StringIO()
    assert cli.run(argv + ["--max-product-nodes", "1"],
                   out=io.StringIO(), err=err) == 3
    assert err.getvalue() == "resource limit: product exceeds 1 nodes\n"
    assert cli.run(argv + ["--max-product-nodes", "100"],
                   out=io.StringIO(), err=io.StringIO()) == 0


def test_emptiness_pos_coin():
    c = coin_chain()
    phi = parse_formula("F[<=x] a")
    empty, val, path = fx.emptiness_pos_fx(c, phi)
    assert not empty
    assert val == {"x": c.m * size(to_nnf(phi))}
    # The witness path trace satisfies the parameter-free formula.
    prefix = [c.labels[s] for s in path]
    assert eval_prefix(prefix, to_nnf(strip_params(phi))) == CERTAIN_TRUE


def test_emptiness_pos_unreachable():
    one = Fraction(1)
    c = MarkovChain(2, 0, [{0: one}, {1: one}], [set(), {"a"}])
    empty, _, _ = fx.emptiness_pos_fx(c, parse_formula("F[<=x] a"))
    assert empty


def test_emptiness_as1():
    one = Fraction(1)
    # Deterministic line: a is reached surely in one step.
    line = MarkovChain(2, 0, [{1: one}, {1: one}], [set(), {"a"}])
    assert not fx.emptiness_as1_fx(line, parse_formula("F[<=x] a"))
    # The coin chain can delay a arbitrarily long, so no bound is almost
    # sure; a proposition that never appears is hopeless outright.
    c = coin_chain()
    assert fx.emptiness_as1_fx(c, parse_formula("F[<=x] a"))
    assert fx.emptiness_as1_fx(c, parse_formula("F[<=x] a & F b"))
    c2 = MarkovChain(2, 0, [{0: Fraction(1, 2), 1: Fraction(1, 2)},
                            {1: one}], [set(), set()])
    assert fx.emptiness_as1_fx(c2, parse_formula("F[<=x] a"))


def test_min_set_fx_coin():
    c = coin_chain()
    ms = fx.min_set_fx(c, parse_formula("F[<=x] a"))
    assert list(ms) == [(1,)]


def test_emptiness_matches_diamond_engine():
    rng = random.Random(32)
    n = 0
    while n < 40:
        phi = random_fx_formula(rng, depth=2)
        if not variables(phi):
            continue
        sz = size(to_nnf(phi))
        c = random_chain(rng, max_states=3)
        if c.m * sz * 2 ** sz > 1500:
            continue
        ck = DiamondChecker(phi)
        empty, _, _ = fx.emptiness_pos_fx(c, phi)
        assert empty == ck.emptiness_pos(c), (phi,)
        n += 1
