"""Parametric LTL formulas: AST, parser, normal forms, fragment classification.

The concrete syntax is whitespace-insensitive (any str.isspace
character separates tokens):

    phi ::= ident | "!" phi | "(" phi ")" | phi "&" phi | phi "|" phi
          | "X" phi | "F" phi | "G" phi | phi "U" phi | phi "R" phi
          | "F[<=" ident "]" phi | "F[<=" nat "]" phi | "G[<=" nat "]" phi

Precedence: unary (!, X, F, G, bounded) > U, R (right-associative) > & > |.
An identifier is a word, a run of letters, digits and _ (Unicode ones
too: str.isalnum() or _), whose first character is lowercase
(str.islower()): `a`, `req_1`, `é` and `aΩ` are identifiers.  The
temporal operator letters X, F, G, U, R are uppercase and therefore
never begin one.  A natural is ASCII digits; any other character is a
parse error.

Only upper bounds are supported as subscripts.  Parametric bounds are
admitted on F only; a parametric bound on G is rejected at parse time,
and so is nesting deeper than MAX_FORMULA_DEPTH levels.

Only the parser recurses, within that cap; every other pass is
iterative, so a formula built in code may nest as deep as memory
allows.  `subformulas` lists the nodes, `fold` values each node from
its children's values, `_map` rebuilds a formula top-down and keeps
unchanged subtrees, and `to_nnf` is `_map` with one rule that moves a
negation onto the dual operator.

Nodes are immutable.  Each fixes its children tuple and its hash when
it is built, the hash from its children's stored hashes, so hashing
takes one step at any depth, and `==` walks two trees on a stack.  The
text, the NNF and the variable names are computed at most once per
node, when first asked: an NNF node is its own NNF, `variables` hands
out a new list each call, and only a node whose text was asked keeps
it.
"""

from __future__ import annotations

import re


MAX_CONSTANT_BOUND = 10**6
MAX_FORMULA_DEPTH = 200


class FormulaError(Exception):
    """Base class for formula-level errors."""


class ParseError(FormulaError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class FragmentError(FormulaError):
    """The formula (or an operation on it) leaves the supported fragment."""


# ---------------------------------------------------------------------------
# Bounds


class VarBound:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        if type(other) is not VarBound:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((VarBound, self.name))

    def __repr__(self):
        return "VarBound(name=%r)" % (self.name,)

    def __str__(self):
        return self.name


class ConstBound:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if type(other) is not ConstBound:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((ConstBound, self.value))

    def __repr__(self):
        return "ConstBound(value=%r)" % (self.value,)

    def __str__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# AST nodes.  After to_nnf, Not never appears; negation lives in NegAtom.


class Formula:
    """A formula node.  No code assigns to a node after construction,
    which fixes its children `_kids` (left to right), its hash (from
    its kind, its name or bound, and its children's stored hashes) and
    whether it is in NNF.  `==` compares two trees on a stack and skips
    a subtree the two share.  The text, the NNF and the variable names
    are kept in `_text`, `_nnf` (True on a node that is its own NNF)
    and `_vars`, each None until first asked."""

    __slots__ = ("_kids", "_hash", "_nnf", "_text", "_vars")
    # The constructor's arguments, the children last; repr prints them.
    _fields = ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            if (f._hash != g._hash or type(f) is not type(g)
                    or f._own() != g._own()):
                return False
            stack += zip(f._kids, g._kids)
        return True

    def _own(self):
        """The node's field that is not a child, or None."""
        return None

    def __str__(self):
        if self._text is None:
            self._text = fold(self, _fmt)[0]
        return self._text

    def __repr__(self):
        def node(f, kids):
            own = [repr(f._own())] if len(f._fields) > len(kids) else []
            return "%s(%s)" % (type(f).__name__, ", ".join(
                "%s=%s" % arg for arg in zip(f._fields, own + kids)))
        return fold(self, node)


class _Literal(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name):
        self.name = name
        self._kids = ()
        self._hash = hash((type(self), name))
        self._nnf = True
        self._text = self._vars = None

    def _own(self):
        return self.name


class _Unary(Formula):
    __slots__ = ("child",)
    _fields = ("child",)

    def __init__(self, child):
        self.child = child
        self._kids = (child,)
        self._hash = hash((type(self), child._hash))
        self._nnf = True if child._nnf is True else None
        self._text = self._vars = None


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._kids = (left, right)
        self._hash = hash((type(self), left._hash, right._hash))
        self._nnf = (True if left._nnf is True and right._nnf is True
                     else None)
        self._text = self._vars = None


class _Bounded(Formula):
    __slots__ = ("bound", "child")
    _fields = ("bound", "child")

    def __init__(self, bound, child):
        self.bound = bound
        self.child = child
        self._kids = (child,)
        self._hash = hash((type(self), bound, child._hash))
        self._nnf = True if child._nnf is True else None
        self._text = self._vars = None

    def _own(self):
        return self.bound


class Atom(_Literal):
    __slots__ = ()


class NegAtom(_Literal):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()

    def __init__(self, child):
        super().__init__(child)
        self._nnf = None


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class BoundedEventually(_Bounded):
    __slots__ = ()


class BoundedAlways(_Bounded):
    __slots__ = ()


_PREC = {
    Or: 1,
    And: 2,
    Until: 3,
    Release: 3,
}
# Every other node binds at 9, tighter than any binary operator.
_TEXT = {Or: "|", And: "&", Until: "U", Release: "R", Not: "!", Next: "X ",
         Eventually: "F ", Always: "G ", BoundedEventually: "F",
         BoundedAlways: "G", Atom: "", NegAtom: "!"}


def _fmt(f, kids):
    """f's text and precedence from its children's: a child that binds
    looser than f asks is bracketed."""
    kind = type(f)
    if kind is Atom or kind is NegAtom:
        return _TEXT[kind] + f.name, 9
    if kind in _PREC:
        prec = _PREC[kind]
        (left, lp), (right, rp) = kids
        # U and R group to the right.  A nested & or | of the same kind
        # is bracketed on either side, so the text parses back to the
        # same tree.
        if lp <= prec:
            left = "(%s)" % left
        if rp < prec or rp == prec and kind in (And, Or):
            right = "(%s)" % right
        return "%s %s %s" % (left, _TEXT[kind], right), prec
    (child, cp), = kids
    if cp < 9:
        child = "(%s)" % child
    if kind is BoundedEventually or kind is BoundedAlways:
        return "%s[<=%s] %s" % (_TEXT[kind], f.bound, child), 9
    return _TEXT[kind] + child, 9


def children(f):
    """The immediate subformulas of f, left to right."""
    return f._kids


def rebuild(f, kids):
    """A node of f's type (and bound) over the given children."""
    if isinstance(f, (BoundedEventually, BoundedAlways)):
        return type(f)(f.bound, *kids)
    return type(f)(*kids)


def subformulas(phi, postorder=False):
    """Every node of phi, left to right, parents before their children
    (preorder) or after them (postorder).  A subtree that occurs twice is
    listed twice.  Iterative, so nesting depth is not limited by the
    interpreter's recursion limit."""
    out, stack = [], [phi]
    while stack:
        f = stack.pop()
        out.append(f)
        # Postorder is the reverse of a right-to-left preorder.
        stack += f._kids if postorder else f._kids[::-1]
    return out[::-1] if postorder else out


def fold(phi, fn):
    """phi's value, computed children first: fn(f, values) gets a node
    and its children's values, left to right.  Each distinct node object
    is opened once, pushed back under its children, and valued when it
    comes up again, however often it occurs.  Iterative."""
    done, opened, stack = {}, set(), [phi]
    while stack:
        f = stack.pop()
        if id(f) not in opened:
            opened.add(id(f))
            stack += (f,) + f._kids[::-1]
        elif id(f) not in done:
            done[id(f)] = fn(f, [done[id(c)] for c in f._kids])
    return done[id(phi)]


def _map(phi, fn):
    """Rebuild phi top-down: each node f is replaced by fn(f), whose
    children are then mapped in turn; fn sees the nodes in preorder.  A
    node whose mapped children are its own is kept, so an unchanged
    subtree is shared, not copied."""
    order, stack = [], [phi]
    while stack:
        f = fn(stack.pop())
        kids = f._kids
        order.append((f, kids))
        stack += kids[::-1]
    # Reversed, the preorder lists every node after its subtrees, and a
    # parent finds its mapped children on top of `done`, leftmost last.
    done = []
    for f, kids in reversed(order):
        if not kids:
            done.append(f)
        elif len(kids) == 1:
            c = done[-1]
            done[-1] = f if c is kids[0] else rebuild(f, (c,))
        else:
            left = done.pop()
            right = done[-1]
            done[-1] = (f if left is kids[0] and right is kids[1]
                        else rebuild(f, (left, right)))
    return done[0]


def _has_var_bound(f):
    return isinstance(f, BoundedEventually) and isinstance(f.bound, VarBound)


def size(phi):
    """Node count of the AST."""
    return len(subformulas(phi))


def variables(phi):
    """Parameter variable names occurring in phi, in syntactic order, as
    a new list."""
    if phi._vars is None:
        phi._vars = tuple(dict.fromkeys(f.bound.name for f in subformulas(phi)
                                        if _has_var_bound(f)))
    return list(phi._vars)


def atoms(phi):
    """Proposition names occurring in phi, sorted."""
    return sorted({f.name for f in subformulas(phi)
                   if isinstance(f, (Atom, NegAtom))})


# ---------------------------------------------------------------------------
# Parser


# One token after any whitespace: a bracket, a connective or "<=", an
# operator letter, a natural, a word, any other character, or the end.
# \s and \w are str.isspace and "str.isalnum() or _" on every code point.
_TOKEN = re.compile(r"\s*(?:(?P<sym>[!()&|\[\]]|<=)|(?P<op>[XFGUR])"
                    r"|(?P<nat>[0-9]+)|(?P<ident>\w+)|(?P<bad>\S)"
                    r"|(?P<eof>\Z))")


class _Lexer:
    """Tokens of a formula text, each `_TOKEN`'s match where the last
    one ended.  The token `peek` matches is kept until `next` consumes
    it, so each token is matched once, and only when first asked."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._token = self._end = None

    def peek(self):
        if self._token is None:
            m = _TOKEN.match(self.text, self.pos)
            kind = m.lastgroup
            value, start = m[kind], m.start(kind)
            # A word is an identifier only from a lowercase letter.
            if kind == "bad" or kind == "ident" and not value[0].islower():
                raise ParseError("unexpected character %r" % value[0], start)
            self._token = (value if kind == "sym" else kind, value, start)
            self._end = m.end()
        return self._token

    def next(self):
        token = self.peek()
        self.pos, self._token = self._end, None
        return token

    def expect(self, kind):
        k, v, p = self.next()
        if k != kind:
            raise ParseError("expected %r, found %r" % (kind, v or "end of input"), p)
        return v, p


def parse_formula(text):
    """Parse concrete syntax into a Formula AST.

    Raises ParseError with a position on malformed input; a parametric
    bound on G (not expressible in the supported fragment) and nesting
    deeper than MAX_FORMULA_DEPTH are also parse-time errors.
    """
    lx = _Lexer(text)
    phi = _parse_or(lx, 0)
    kind, value, pos = lx.peek()
    if kind != "eof":
        raise ParseError("trailing input %r" % value, pos)
    return phi


def _deeper(depth, pos):
    """One nesting level down: a parenthesis, !, X, F, G, the right side
    of U or R, or a further link of an & or | chain.  Past
    MAX_FORMULA_DEPTH a ParseError, before any recursion overflows."""
    if depth >= MAX_FORMULA_DEPTH:
        raise ParseError("formula nests deeper than %d levels"
                         % MAX_FORMULA_DEPTH, pos)
    return depth + 1


def _parse_or(lx, depth):
    left = _parse_and(lx, depth)
    while lx.peek()[0] == "|":
        depth = _deeper(depth, lx.next()[2])
        left = Or(left, _parse_and(lx, depth))
    return left


def _parse_and(lx, depth):
    left = _parse_ur(lx, depth)
    while lx.peek()[0] == "&":
        depth = _deeper(depth, lx.next()[2])
        left = And(left, _parse_ur(lx, depth))
    return left


def _parse_ur(lx, depth):
    left = _parse_unary(lx, depth)
    kind, value, pos = lx.peek()
    if kind == "op" and value in ("U", "R"):
        lx.next()
        right = _parse_ur(lx, _deeper(depth, pos))
        return Until(left, right) if value == "U" else Release(left, right)
    return left


def _parse_bound(lx, op, pos):
    """Parse the optional [<= ...] suffix after F or G."""
    if lx.peek()[0] != "[":
        return None
    lx.next()
    lx.expect("<=")
    kind, value, vpos = lx.next()
    if kind == "ident":
        if op == "G":
            raise ParseError("parametric bound on G is not supported", vpos)
        bound = VarBound(value)
    elif kind == "nat":
        # Compare lengths first: int() refuses very long digit strings.
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_CONSTANT_BOUND)) \
                or int(digits) > MAX_CONSTANT_BOUND:
            raise ParseError("constant bound %s exceeds limit %d"
                             % (digits, MAX_CONSTANT_BOUND), vpos)
        bound = ConstBound(int(digits))
    else:
        raise ParseError("expected variable or constant bound", vpos)
    lx.expect("]")
    return bound


# F and G: the node without a bound and the node with one.
_EVENTUALLY_ALWAYS = {"F": (Eventually, BoundedEventually),
                      "G": (Always, BoundedAlways)}


def _parse_unary(lx, depth):
    kind, value, pos = lx.next()
    if kind == "!":
        return Not(_parse_unary(lx, _deeper(depth, pos)))
    if kind == "(":
        phi = _parse_or(lx, _deeper(depth, pos))
        lx.expect(")")
        return phi
    if kind == "ident":
        return Atom(value)
    if kind == "op":
        if value == "X":
            return Next(_parse_unary(lx, _deeper(depth, pos)))
        if value in _EVENTUALLY_ALWAYS:
            plain, bounded = _EVENTUALLY_ALWAYS[value]
            bound = _parse_bound(lx, value, pos)
            child = _parse_unary(lx, _deeper(depth, pos))
            return plain(child) if bound is None else bounded(bound, child)
        raise ParseError("operator %r needs a left operand" % value, pos)
    raise ParseError("expected a formula, found %r" % (value or "end of input"), pos)


# ---------------------------------------------------------------------------
# Normal forms


def to_nnf(phi):
    """Push negations to the atoms using the standard dualities.

    Raises FragmentError when pushing a negation through a parametric
    bound would be required (that combination leaves the supported
    fragment).  An NNF formula is its own NNF; any other formula keeps
    its NNF once computed.
    """
    if phi._nnf is True:
        return phi
    if phi._nnf is None:
        phi._nnf = _map(phi, _push_not)
    return phi._nnf


_DUAL = {And: Or, Or: And, Until: Release, Release: Until,
         Eventually: Always, Always: Eventually, Next: Next,
         BoundedEventually: BoundedAlways, BoundedAlways: BoundedEventually,
         Atom: NegAtom, NegAtom: Atom}


def _push_not(f):
    """f with a leading negation moved one level down: double negations
    cancel, and !op(c...) becomes dual-op(!c...), whose children `_map`
    then rewrites in turn."""
    while isinstance(f, Not):
        f = f.child
        if isinstance(f, Not):
            f = f.child
            continue
        if isinstance(f, (Atom, NegAtom)):
            return _DUAL[type(f)](f.name)
        if _has_var_bound(f):
            raise FragmentError(
                "negation of F[<=%s] %s is not expressible: the only "
                "parametrized operator available is a bounded eventually"
                % (f.bound, f.child))
        dual, kids = _DUAL[type(f)], [Not(c) for c in f._kids]
        if isinstance(f, (BoundedEventually, BoundedAlways)):
            return dual(f.bound, *kids)
        return dual(*kids)
    return f


# ---------------------------------------------------------------------------
# Fragment classification


class FragmentClass:
    REACH = "Reach"
    BUCHI = "Buchi"
    GENERALIZED_BUCHI = "GeneralizedBuchi"
    FX = "FX"
    DIAMOND = "Diamond"
    FULL = "FullPLTL"


def _is_reach(phi):
    return (isinstance(phi, BoundedEventually)
            and isinstance(phi.bound, VarBound)
            and isinstance(phi.child, Atom))


def _is_buchi(phi):
    return isinstance(phi, Always) and _is_reach(phi.child)


def genbuchi_pairs(phi):
    """(variable, proposition) per conjunct if phi is a conjunction of
    G F[<=x_i] a_i, else None.  The And spine is walked left to right
    on a stack."""
    pairs, stack = [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        elif _is_buchi(f):
            pairs.append((f.child.bound.name, f.child.child.name))
        else:
            return None
    return pairs


_FX_NODES = {Atom, NegAtom, Next, Eventually, BoundedEventually, And, Or}


def classify(phi):
    """Most specific fragment whose grammar generates the NNF formula phi."""
    if _is_reach(phi):
        return FragmentClass.REACH
    if _is_buchi(phi):
        return FragmentClass.BUCHI
    pairs = genbuchi_pairs(phi)
    if pairs is not None and len(pairs) >= 2:
        return FragmentClass.GENERALIZED_BUCHI
    kinds = {type(f) for f in subformulas(phi)}
    if kinds <= _FX_NODES:
        return FragmentClass.FX
    # Every node kind but Not; a constant bound is a counter of the
    # general engine, like a variable one.
    if Not not in kinds:
        return FragmentClass.DIAMOND
    return FragmentClass.FULL


# ---------------------------------------------------------------------------
# Remaining operations


def substitute(phi, val):
    """Replace every variable bound by its value from the valuation.

    `val` may be a Valuation or a plain dict of naturals; it must assign
    every variable of phi.
    """
    def bind(f):
        if not _has_var_bound(f):
            return f
        if f.bound.name not in val:
            raise FormulaError("valuation does not assign variable %r"
                               % f.bound.name)
        return BoundedEventually(ConstBound(val[f.bound.name]), f.child)

    return _map(phi, bind)


def closure(phi):
    """The distinct subformulas of phi, children before their parents
    (so literals come first), in a deterministic order."""
    return list(dict.fromkeys(subformulas(phi, postorder=True)))


def unfolded_size(phi):
    """The size of phi with F[<=c] psi unfolded to psi | X (... psi) and
    G[<=c] psi to psi & X (... psi), c nexts each: counted, not built."""
    def count(f, kids):
        below = sum(kids)
        if isinstance(getattr(f, "bound", None), ConstBound):
            # c unfoldings, each an operator, a next and a child copy.
            return f.bound.value * (below + 2) + below
        return below + 1
    return fold(phi, count)


def strip_params(phi):
    """Replace every parametric bounded eventually by a plain eventually."""
    return _map(phi, lambda f: Eventually(f.child) if _has_var_bound(f) else f)
