"""Seeded property tests of the AST rewrites against the lasso evaluator.

Random NNF formulas over the atoms a, b and the variables x, y are
checked on random ultimately periodic words with `oracle.eval_lasso`,
which evaluates the semantics directly and shares no code with the
rewrites.  `unfolded_size` is checked against the size of the unfolded
formula, the facts a node keeps (hash, NNF, variables, repr) against
fresh computations, and the parser's messages against the text they
point into.
`derandomize=True` makes every run draw the same examples.
"""

import ast
import re
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nnf_formulas, rename_apart, rewrite_constant_bounds
from pltlcheck.formula import (
    And, Atom, ConstBound, NegAtom, Not, ParseError, VarBound, children,
    parse_formula, size, strip_params, subformulas, substitute, to_nnf,
    unfolded_size, variables,
)
from pltlcheck.oracle import LassoWord, eval_lasso

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


FORMULAS = nnf_formulas(max_leaves=8)
LETTER = st.frozensets(st.sampled_from("ab"))
WORDS = st.builds(LassoWord, st.lists(LETTER, max_size=3).map(tuple),
                  st.lists(LETTER, min_size=1, max_size=3).map(tuple))
VALUATIONS = st.fixed_dictionaries({"x": st.integers(0, 4),
                                    "y": st.integers(0, 4)})


@PROPERTY
@given(FORMULAS)
def test_print_parse_round_trip(phi):
    # The printer writes a negated atom as "!a", which parses to Not(a).
    assert to_nnf(parse_formula(str(phi))) == phi


@PROPERTY
@given(FORMULAS, VALUATIONS, WORDS)
def test_constant_unfolding_keeps_truth(phi, val, word):
    ground = substitute(phi, val)
    assert eval_lasso(word, rewrite_constant_bounds(ground)) == \
        eval_lasso(word, ground)


@PROPERTY
@given(FORMULAS, VALUATIONS, WORDS)
def test_nnf_of_a_negation_negates(phi, val, word):
    # Bounds are constants once substituted, so every dual of the
    # negation table applies: And/Or, U/R, F/G, X, F[<=c]/G[<=c].
    psi = substitute(phi, val)
    assert eval_lasso(word, to_nnf(Not(psi))) == (not eval_lasso(word, psi))


@PROPERTY
@given(FORMULAS, VALUATIONS, WORDS)
def test_stripped_formula_over_approximates(phi, val, word):
    if eval_lasso(word, substitute(phi, val)):
        assert eval_lasso(word, strip_params(phi))


@PROPERTY
@given(FORMULAS, VALUATIONS)
def test_rename_apart_agrees_with_substitute(phi, val):
    renamed, back = rename_apart(phi)
    expanded = {fresh: val[user] for fresh, user in back.items()}
    assert substitute(renamed, expanded) == substitute(phi, val)


@PROPERTY
@given(FORMULAS)
def test_unfolded_size_counts_the_unfolding(phi):
    assert unfolded_size(phi) == size(rewrite_constant_bounds(phi))


def test_fold_visits_a_shared_subtree_once():
    # Thirty levels of And(f, f) share one node per level: 31 distinct
    # nodes, 2^31 - 1 occurrences.  A walk over the occurrences would
    # not finish.
    phi = Atom("a")
    for _ in range(30):
        phi = And(phi, phi)
    start = time.perf_counter()
    assert unfolded_size(phi) == 2 ** 31 - 1
    assert time.perf_counter() - start < 1


@PROPERTY
@given(FORMULAS)
def test_two_parses_are_equal_with_equal_hashes(phi):
    text = str(Not(phi))
    first, second = parse_formula(text), parse_formula(text)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


@PROPERTY
@given(FORMULAS)
def test_nnf_is_kept(phi):
    # A negated variable bound has no NNF.
    negated = Not(strip_params(phi))
    nnf = to_nnf(negated)
    assert to_nnf(negated) is nnf
    assert to_nnf(nnf) is nnf
    assert to_nnf(phi) is phi


@PROPERTY
@given(FORMULAS)
def test_variables_hands_out_a_fresh_list(phi):
    names = variables(phi)
    expected = list(names)
    names.append("changed")
    assert variables(phi) == expected
    assert variables(phi) is not variables(phi)


def _dataclass_repr(phi):
    """repr as the frozen dataclasses printed it: class name, then each
    field as name=repr(value), children last."""
    kind = type(phi).__name__
    if isinstance(phi, (Atom, NegAtom)):
        return "%s(name=%r)" % (kind, phi.name)
    kids = [_dataclass_repr(c) for c in children(phi)]
    if hasattr(phi, "bound"):
        bound = phi.bound
        if isinstance(bound, VarBound):
            text = "VarBound(name=%r)" % bound.name
        else:
            assert isinstance(bound, ConstBound)
            text = "ConstBound(value=%r)" % bound.value
        return "%s(bound=%s, child=%s)" % (kind, text, kids[0])
    if len(kids) == 1:
        return "%s(child=%s)" % (kind, kids[0])
    return "%s(left=%s, right=%s)" % (kind, kids[0], kids[1])


@PROPERTY
@given(FORMULAS)
def test_repr_keeps_the_field_form(phi):
    for f in (phi, Not(phi)):
        assert repr(f) == _dataclass_repr(f)
    assert all(repr(f) == _dataclass_repr(f) for f in subformulas(phi))


# Tokens, near-tokens and characters that are lowercase but no letter or
# digit (U+24D0, U+0345), so no identifier can start there.
TEXTS = st.lists(st.one_of(
    st.sampled_from(["a", "x1", "\u00e9", "\u24d0", "\u0345", "F", "G",
                     "X", "U", "[<=", "[", "]", "<", "(", ")", "!", "&",
                     "|", "3", " ", "\t"]),
    st.characters()), max_size=12).map("".join)


@PROPERTY
@given(TEXTS)
def test_parse_errors_name_the_text_at_their_position(text):
    try:
        parse_formula(text)
    except ParseError as e:
        rest = text[e.position:]
        m = re.search(r"(trailing input|found|unexpected character) (.*) "
                      r"\(at position \d+\)$", str(e))
        if m is None:
            return
        value = ast.literal_eval(m[2])
        if value == "end of input" and m[1] == "found":
            assert not rest.strip()
        else:
            assert value and rest.startswith(value)
