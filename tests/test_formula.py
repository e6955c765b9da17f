import pytest

from pltlcheck.formula import (
    Always, And, Atom, BoundedAlways, BoundedEventually, ConstBound,
    Eventually, FormulaError, FragmentClass, MAX_FORMULA_DEPTH, NegAtom,
    Next, Or, ParseError, Release, Until, VarBound, atoms, classify, closure,
    genbuchi_pairs, parse_formula, size, strip_params, substitute, to_nnf,
    variables,
)
from pltlcheck.valuation import Valuation

from helpers import nesting_depth, rename_apart, rewrite_constant_bounds


def test_parse_atoms_and_connectives():
    phi = parse_formula("a & !b | X c")
    assert phi == Or(And(Atom("a"), Not_(Atom("b"))), Next(Atom("c")))


def Not_(f):
    from pltlcheck.formula import Not
    return Not(f)


def test_parse_precedence():
    # U binds tighter than &, & tighter than |.
    phi = parse_formula("a U b & c | d")
    assert isinstance(phi, Or)
    assert isinstance(phi.left, And)
    assert isinstance(phi.left.left, Until)


def test_parse_until_right_assoc():
    phi = parse_formula("a U b U c")
    assert phi == Until(Atom("a"), Until(Atom("b"), Atom("c")))


def test_parse_bounded():
    phi = parse_formula("F[<=x] a & F[<=3] b & G[<=2] c")
    parts = []

    def walk(f):
        if isinstance(f, And):
            walk(f.left)
            walk(f.right)
        else:
            parts.append(f)

    walk(phi)
    assert parts[0] == BoundedEventually(VarBound("x"), Atom("a"))
    assert parts[1] == BoundedEventually(ConstBound(3), Atom("b"))
    assert parts[2] == BoundedAlways(ConstBound(2), Atom("c"))


def test_parse_unicode_identifiers():
    # An identifier starts with a lowercase character and goes on with
    # letters, digits or _, Unicode ones included.
    assert parse_formula("F[<=x] \u00e9") == \
        BoundedEventually(VarBound("x"), Atom("\u00e9"))
    assert parse_formula("a\u03a9 & req_1") == \
        And(Atom("a\u03a9"), Atom("req_1"))
    assert parse_formula("F[<=\u00e9] a").bound == VarBound("\u00e9")


def test_parse_errors():
    for bad in ("", "a &", "(a", "F[<=] a", "G[<=x] a", "a b", "U a"):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_nesting_depth_and_parse_limit():
    assert nesting_depth(parse_formula("a")) == 1
    assert nesting_depth(parse_formula("a & X (b | F c)")) == 5
    assert nesting_depth(parse_formula("a & b & c")) == 3
    for text in ("X " * MAX_FORMULA_DEPTH + "a",
                 " & ".join(["a"] * (MAX_FORMULA_DEPTH + 1))):
        parse_formula(text)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_formula("(" + text + ")")


def test_roundtrip_str():
    for text in ("a U (b R !c)", "G F[<=x] a", "X (a | b) & F c"):
        phi = parse_formula(text)
        assert parse_formula(str(phi)) == phi


def test_to_nnf_pushes_negation():
    phi = to_nnf(parse_formula("!(a U b)"))
    assert phi == Release(NegAtom("a"), NegAtom("b"))
    phi = to_nnf(parse_formula("!F[<=2] a"))
    assert phi == BoundedAlways(ConstBound(2), NegAtom("a"))
    phi = to_nnf(parse_formula("!!a"))
    assert phi == Atom("a")


def test_deep_formulas_are_walked_without_recursion():
    # Formulas built in code are not held to the parser's depth cap;
    # 5,000 levels are past the interpreter's recursion limit.
    nots = Atom("a")
    for _ in range(5000):
        nots = Not_(nots)
    assert to_nnf(nots) == Atom("a")
    assert to_nnf(Not_(nots)) == NegAtom("a")
    assert str(nots) == "!" * 5000 + "a"
    assert classify(nots) == FragmentClass.FULL
    conj = Always(BoundedEventually(VarBound("x0"), Atom("a0")))
    for i in range(1, 5000):
        conj = And(conj, Always(BoundedEventually(VarBound("x%d" % i),
                                                  Atom("a%d" % i))))
    # Nothing to rewrite: every subtree is kept, not copied.
    assert to_nnf(conj) is conj
    text = str(conj)
    assert text.startswith("(" * 4998 + "G F[<=x0] a0 & G F[<=x1] a1) & ")
    assert text.endswith(") & G F[<=x4999] a4999")
    assert classify(conj) == FragmentClass.GENERALIZED_BUCHI
    assert genbuchi_pairs(conj) == [("x%d" % i, "a%d" % i)
                                    for i in range(5000)]
    disj = Atom("a0")
    for i in range(1, 5000):
        disj = Or(disj, Atom("a%d" % i))
    assert str(to_nnf(Not_(disj))) == str(disj).replace(
        "a", "!a").replace("|", "&")


def test_deep_formulas_hash_and_compare_without_recursion():
    # Each node fixes its hash from its children's, so a node 3,000
    # levels deep hashes in one step, and two copies built apart are
    # compared on a stack.
    def conjunction():
        phi = Eventually(Atom("a"))
        for _ in range(3000):
            phi = And(phi, Eventually(Atom("a")))
        return phi
    phi, psi = conjunction(), conjunction()
    assert phi is not psi
    assert hash(phi) == hash(psi)
    assert phi == psi
    assert phi != And(psi, Atom("a"))
    assert repr(phi).startswith("And(left=And(left=And(")


def test_nnf_rejects_negated_parametric():
    from pltlcheck.formula import FormulaError
    with pytest.raises(FormulaError):
        to_nnf(parse_formula("!F[<=x] a"))


def test_variables_and_atoms():
    phi = parse_formula("F[<=y] a & F[<=x] b & F[<=y] c")
    assert variables(phi) == ["y", "x"]
    assert atoms(phi) == ["a", "b", "c"]


def test_size():
    assert size(parse_formula("a & b")) == 3
    assert size(parse_formula("G F[<=x] a")) == 3


def test_rewrite_constant_bounds():
    phi = rewrite_constant_bounds(parse_formula("F[<=2] a"))
    assert phi == Or(Atom("a"), Next(Or(Atom("a"), Next(Atom("a")))))
    psi = rewrite_constant_bounds(parse_formula("G[<=1] a"))
    assert psi == And(Atom("a"), Next(Atom("a")))
    # Parametric bounds survive untouched.
    assert rewrite_constant_bounds(parse_formula("F[<=x] a")) == \
        BoundedEventually(VarBound("x"), Atom("a"))


def test_rename_apart():
    phi = parse_formula("F[<=x] a & F[<=x] b")
    renamed, back = rename_apart(phi)
    names = variables(renamed)
    assert len(names) == 2 and len(set(names)) == 2
    assert all(back[n] == "x" for n in names)
    single, back2 = rename_apart(parse_formula("F[<=x] a"))
    assert variables(single) == ["x"]
    assert back2["x"] == "x"


def test_substitute():
    phi = parse_formula("F[<=x] a")
    assert substitute(phi, {"x": 3}) == BoundedEventually(ConstBound(3),
                                                          Atom("a"))
    assert substitute(phi, Valuation({"x": 3})) == substitute(phi, {"x": 3})
    for empty in (Valuation({}), {}):
        with pytest.raises(FormulaError, match="does not assign"):
            substitute(phi, empty)


def test_classify():
    cases = [
        ("F[<=x] a", FragmentClass.REACH),
        ("G F[<=x] a", FragmentClass.BUCHI),
        ("G F[<=x] a & G F[<=y] b", FragmentClass.GENERALIZED_BUCHI),
        ("F[<=x] a & X F b", FragmentClass.FX),
        ("F[<=x] (a U b)", FragmentClass.DIAMOND),
        ("a U F[<=x] b", FragmentClass.DIAMOND),
    ]
    for text, expected in cases:
        assert classify(to_nnf(parse_formula(text))) == expected


def test_classify_bounded_always_is_diamond():
    phi = to_nnf(parse_formula("!F[<=3] a"))
    assert classify(phi) == FragmentClass.DIAMOND


def test_strip_params():
    phi = strip_params(parse_formula("F[<=x] a"))
    assert phi == Eventually(Atom("a"))


def test_closure_contains_subformulas():
    phi = to_nnf(parse_formula("a U (b & X c)"))
    cl = closure(phi)
    assert Atom("a") in cl and Atom("c") in cl and phi in cl
