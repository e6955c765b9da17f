import io
import random
import time
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    fx_formulas, random_chain, random_fx_formula, reference_first_hits,
    rewrite_constant_bounds,
)
from pltlcheck import cli, fx
from pltlcheck.diamond import (
    DEFAULT_MAX_PRODUCT_NODES, DiamondChecker, ResourceLimitError,
)
from pltlcheck.fixtures import chain_text, coin_chain, traffic_chain
from pltlcheck import formula
from pltlcheck.formula import (
    And, Atom, BoundedEventually, ConstBound, Eventually, Or, VarBound,
    parse_formula, size, strip_params, to_nnf, unfolded_size, variables,
)
from pltlcheck.markov import MarkovChain
from pltlcheck.oracle import CERTAIN_TRUE, eval_prefix
from pltlcheck.valuation import Valuation


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
        ground = to_nnf(strip_params(phi))
        assert eval_prefix(prefix, ground) == CERTAIN_TRUE
        # No shorter path satisfies it: the search is breadth-first.
        shorter = [[c.init]]
        while len(shorter[0]) < len(path):
            assert all(eval_prefix([c.labels[s] for s in p], ground)
                       != CERTAIN_TRUE for p in shorter), (phi, path)
            shorter = [p + [t] for p in shorter
                       for t in c.successors(p[-1])]
    assert nonempty > 100


def test_witness_path_of_a_constant_bound_is_shortest():
    # F (a & F[<=5] b) holds on 0 2 3 4 8 9, where the a at 2 starts the
    # window.  On the longer route 0 1 5 6 7 8 9 the a comes two steps
    # later, so at 8 its window is younger, and that label reaches 8
    # while the older one still waits in the queue.  The younger label
    # must not put out the older: it is one step behind.
    one, half = Fraction(1), Fraction(1, 2)
    rows = [{1: half, 2: half}, {5: one}, {3: one}, {4: one}, {8: one},
            {6: one}, {7: one}, {8: one}, {9: one}, {9: one}]
    labels = [set(), set(), {"a"}, set(), set(), set(), {"a"}, set(),
              set(), {"b"}]
    chain = MarkovChain(10, 0, rows, labels)
    phi = parse_formula("F (a & F[<=5] b)")
    for f in (phi, rewrite_constant_bounds(phi)):
        assert fx.emptiness_pos_fx(chain, f)[2] == [0, 2, 3, 4, 8, 9], f


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


def test_emptiness_pos_of_a_deep_conjunction():
    # A left-nested F a & F a & ... of 3,001 conjuncts, built in code
    # past the parser's depth cap: every copy of F a is one obligation.
    phi = Eventually(Atom("a"))
    for _ in range(3000):
        phi = And(phi, Eventually(Atom("a")))
    assert fx.emptiness_pos_fx(coin_chain(), phi) == (False, {}, [0, 1])


def test_deep_constant_bound_ages():
    # A pending F[<=c] carries its age like F[<=x]; on the coin chain b
    # never holds, and waiting at age a is put out by the younger self
    # met one step before.
    c = coin_chain()
    assert fx.emptiness_pos_fx(c, parse_formula("F[<=1000000] b & F[<=x] a"),
                               max_nodes=100) == (True, None, None)
    ms = fx.min_set_fx(c, parse_formula("F[<=1000000] a & F[<=x] a"))
    assert list(ms) == [(1,)]


def test_search_builds_no_formula_and_reads_no_text(monkeypatch):
    phi = to_nnf(parse_formula("F[<=3] (a & X F[<=x] b) | X F[<=2] !a"))
    chain = random_chain(random.Random(7), max_states=4)
    expected = fx.min_set_fx(chain, phi)

    def refuse(*args):
        raise AssertionError("the search built or printed a formula")
    for kind in (formula._Literal, formula._Unary, formula._Binary,
                 formula._Bounded):
        monkeypatch.setattr(kind, "__init__", refuse)
    monkeypatch.setattr(formula.Formula, "__str__", refuse)
    monkeypatch.setattr(formula.Formula, "__repr__", refuse)
    assert fx.min_set_fx(chain, phi) == expected


def _unfolded_answers(chain, phi):
    """Verdict, witness valuation, witness-path length and minimal set."""
    empty, val, path = fx.emptiness_pos_fx(chain, phi)
    return empty, val, path and len(path), fx.min_set_fx(chain, phi)


def _constant_bound(c, op, child, other):
    """F[<=c] child, alone or joined by op to other."""
    f = BoundedEventually(ConstBound(c), child)
    return op(f, other) if op else f


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.builds(_constant_bound, st.integers(0, 6),
                 st.sampled_from((None, And, Or)),
                 fx_formulas(2, top=6), fx_formulas(2, top=6)),
       st.integers(0, 2 ** 32 - 1)
       | st.lists(st.sets(st.sampled_from("ab")), min_size=1, max_size=8))
# Two routes reach one pair with F[<=1] b at different ages: the pair
# must keep both labels.
@example(parse_formula("F (a & X F[<=1] b)"), 2175)
# Two copies of F[<=2] b meet at 1; the older sets the deadline.
@example(parse_formula("F[<=2] b & F (a & F[<=2] b)"),
         [set(), {"a"}, set(), {"b"}])
def test_ages_match_the_unfolding(phi, source):
    # rewrite_constant_bounds spells F[<=c] as c nested X: no age, and
    # no code shared with the ages.  A word read once, into a sink,
    # fixes where each letter comes; a random chain offers choices.
    chain = (random_chain(random.Random(source), max_states=4)
             if isinstance(source, int) else _line(source))
    assert _unfolded_answers(chain, phi) == _unfolded_answers(
        chain, rewrite_constant_bounds(phi))


def test_met_conjuncts_join_once(monkeypatch):
    # Forty eventualities all met at the first letter: each may also
    # wait, but waiting asks more, so each meet holds one way and the
    # conjunction joins 39 times, not 2^40.
    joins, both = [], fx._both

    def counted(v, w):
        joins.append(1)
        if len(joins) > 1000:
            raise AssertionError("ways multiply")
        return both(v, w)
    monkeypatch.setattr(fx, "_both", counted)
    names = ["c%d" % i for i in range(40)]
    phi = Eventually(Atom(names[0]))
    for name in names[1:]:
        phi = And(phi, Eventually(Atom(name)))
    chain = MarkovChain(1, 0, [{0: Fraction(1)}], [set(names)])
    assert fx.emptiness_pos_fx(chain, phi) == (False, {}, [0])
    assert len(joins) < 100


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
        assert empty == ck.emptiness(c, "pos"), (phi,)
        n += 1


def _box_search(chain, phi, max_nodes=DEFAULT_MAX_PRODUCT_NODES):
    """The general engine's minimal valuations over {0..m*|phi|}^d."""
    bound = chain.m * unfolded_size(to_nnf(phi))
    return DiamondChecker(phi, max_nodes).min_set(chain, "pos", bound)


def _two_variables(op, left, right):
    return op(BoundedEventually(VarBound("x"), left),
              BoundedEventually(VarBound("y"), right))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(fx_formulas(3) | st.builds(_two_variables, st.sampled_from((And, Or)),
                                  fx_formulas(2), fx_formulas(2)),
       st.integers(0, 2 ** 32 - 1))
def test_label_setting_matches_the_box_search(phi, seed):
    if not variables(phi):
        phi = BoundedEventually(VarBound("x"), phi)
    chain = random_chain(random.Random(seed), max_states=5)
    try:
        expected = _box_search(chain, phi, max_nodes=2000)
    except ResourceLimitError:
        return  # too large a product to wait on
    assert fx.min_set_fx(chain, phi) == expected


def test_front_on_lines():
    none, a = set(), {"a"}
    # Two nested windows of one bound share the distance 5: 3 + 2.
    assert list(fx.min_set_fx(_line([none] * 5 + [a]),
                              parse_formula("F[<=y] F[<=y] a"))) == [(3,)]
    # The copy due at position 0 is the older, so it sets the bound.
    assert list(fx.min_set_fx(_line([none, none, a]), parse_formula(
        "F[<=x] a & X F[<=x] a"))) == [(2,)]
    # Either disjunct alone: its own variable at its distance, the other 0.
    assert list(fx.min_set_fx(_line([none, {"b"}, a]), parse_formula(
        "F[<=x] a | F[<=y] b"))) == [(0, 1), (2, 0)]


def test_incomparable_labels_meet_at_one_node():
    """Two routes of equal length reach state 7 with needs (a, b) at
    (1, 3) and (3, 2); c then comes at 4 on both."""
    half, one = Fraction(1, 2), Fraction(1)
    rows = [{1: half, 4: half}, {2: one}, {3: one}, {7: one},
            {5: one}, {6: one}, {7: one}, {7: one}]
    labels = [set(), {"a"}, set(), {"b"}, set(), {"b"}, {"a"}, {"c"}]
    chain = MarkovChain(8, 0, rows, labels)
    ms = fx.min_set_fx(chain, parse_formula(
        "F[<=z] c & F[<=x] a & F[<=y] b"))
    assert ms.names == ("z", "x", "y")
    assert list(ms) == [(4, 1, 3), (4, 3, 2)]
    assert list(ms) == reference_first_hits(chain, ("c", "a", "b"))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(fx_formulas(3) | st.builds(_two_variables, st.sampled_from((And, Or)),
                                  fx_formulas(2), fx_formulas(2)),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_member_matches_the_general_engine(tmp_path_factory, phi, seed,
                                           data):
    chain = random_chain(random.Random(seed), max_states=4)
    # Up to twice the box the front is searched in; small values, near
    # the minimal points, are drawn more often.
    top = 2 * chain.m * unfolded_size(to_nnf(phi))
    val = {x: data.draw(st.integers(0, 3) | st.integers(0, top), label=x)
           for x in variables(phi)}
    try:
        expected = DiamondChecker(phi, 2000).check_pos(chain, val)
    except ResourceLimitError:
        return  # too large a product to wait on
    path = tmp_path_factory.getbasetemp() / "member.dtmc"
    path.write_text(chain_text(chain))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["member", "--chain", str(path), "--formula", str(phi),
                    "--valuation", str(Valuation(val))], out=out, err=err)
    assert code == 0, err.getvalue()
    assert out.getvalue().endswith(
        "member: %s\n" % ("true" if expected else "false"))


def test_traffic_member_reads_the_front(tmp_path):
    path = tmp_path / "traffic.dtmc"
    path.write_text(chain_text(traffic_chain()))
    aut = tmp_path / "aut.txt"
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.run(["member", "--chain", str(path),
                    "--formula", "F[<=x1] r & F[<=x2] b & F[<=x3] g",
                    "--valuation", "x1=400,x2=400,x3=400",
                    "--emit-automaton", str(aut)], out=out,
                   err=io.StringIO())
    took = time.perf_counter() - start
    assert code == 0
    assert out.getvalue().endswith("member: true\n")
    assert took < 0.5
    assert not aut.exists()


def _minset(path, formula, *extra):
    """Exit code, report and wall time of `minset` on the chain file."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.run(["minset", "--chain", str(path), "--formula", formula]
                   + list(extra), out=out, err=err)
    return code, out.getvalue() + err.getvalue(), time.perf_counter() - start


def _points(report):
    return [tuple(int(kv.partition("=")[2])
                  for kv in line.partition(": ")[2].split(","))
            for line in report.splitlines() if line.startswith("minimal: ")]


def test_traffic_minset_asks_no_oracle(tmp_path):
    chain = traffic_chain()
    path = tmp_path / "traffic.dtmc"
    path.write_text(chain_text(chain))
    for first, second in (("r", "b"), ("b", "g"), ("r", "g")):
        text = "F[<=x] %s & F[<=y] %s" % (first, second)
        code, report, _ = _minset(path, text)
        assert code == 0, report
        assert "oracle-calls" not in report
        assert _points(report) == list(_box_search(chain, parse_formula(text)))
    code, report, took = _minset(path, "F[<=x1] r & F[<=x2] b & F[<=x3] g")
    assert code == 0, report
    assert "oracle-calls" not in report
    assert took < 0.5
    points = _points(report)
    assert len(points) == 16
    assert points == reference_first_hits(chain, ("r", "b", "g"))


def test_minset_label_cap(tmp_path):
    path = tmp_path / "coin.dtmc"
    path.write_text(chain_text(coin_chain()))
    text = "F[<=x] a & X F[<=y] a"
    code, report, _ = _minset(path, text, "--max-product-nodes", "2")
    assert code == 3
    assert report == "resource limit: product exceeds 2 nodes\n"
    code, report, _ = _minset(path, text, "--max-product-nodes", "100")
    assert code == 0, report
    assert _points(report) == [(1, 0)]
