"""Parametric LTL formulas: AST, parser, normal forms, fragment classification.

The concrete syntax is ASCII and whitespace-insensitive:

    phi ::= ident | "!" phi | "(" phi ")" | phi "&" phi | phi "|" phi
          | "X" phi | "F" phi | "G" phi | phi "U" phi | phi "R" phi
          | "F[<=" ident "]" phi | "F[<=" nat "]" phi | "G[<=" nat "]" phi

Precedence: unary (!, X, F, G, bounded) > U, R (right-associative) > & > |.
Identifiers match [a-z][a-zA-Z0-9_]*; the temporal operator letters X, F, G,
U, R are uppercase and therefore never collide with proposition names.

Only upper bounds are supported as subscripts.  Parametric bounds are
admitted on F only; a parametric bound on G is rejected at parse time,
and so is nesting deeper than MAX_FORMULA_DEPTH levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class VarBound:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ConstBound:
    value: int

    def __str__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# AST nodes.  After to_nnf, Not never appears; negation lives in NegAtom.


@dataclass(frozen=True)
class Formula:
    def __str__(self):
        return _fmt(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class BoundedEventually(Formula):
    bound: VarBound | ConstBound
    child: Formula


@dataclass(frozen=True)
class BoundedAlways(Formula):
    bound: ConstBound
    child: Formula


_PREC = {
    Or: 1,
    And: 2,
    Until: 3,
    Release: 3,
}


def _fmt(phi, parent_prec=0):
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, NegAtom):
        return "!" + phi.name
    if isinstance(phi, Not):
        return "!" + _fmt(phi.child, 9)
    if isinstance(phi, Next):
        return "X " + _fmt(phi.child, 9)
    if isinstance(phi, Eventually):
        return "F " + _fmt(phi.child, 9)
    if isinstance(phi, Always):
        return "G " + _fmt(phi.child, 9)
    if isinstance(phi, BoundedEventually):
        return "F[<=%s] %s" % (phi.bound, _fmt(phi.child, 9))
    if isinstance(phi, BoundedAlways):
        return "G[<=%s] %s" % (phi.bound, _fmt(phi.child, 9))
    op = {And: "&", Or: "|", Until: "U", Release: "R"}[type(phi)]
    prec = _PREC[type(phi)]
    # U and R group to the right.  A nested & or | of the same kind is
    # bracketed on either side, so the text parses back to the same tree.
    right_prec = prec + 1 if isinstance(phi, (And, Or)) else prec
    s = "%s %s %s" % (_fmt(phi.left, prec + 1), op,
                      _fmt(phi.right, right_prec))
    if prec < parent_prec:
        return "(" + s + ")"
    return s


def children(f):
    """The immediate subformulas of f, left to right."""
    if isinstance(f, (Atom, NegAtom)):
        return ()
    if isinstance(f, (And, Or, Until, Release)):
        return (f.left, f.right)
    return (f.child,)


def rebuild(f, kids):
    """A node of f's type (and bound) over the given children."""
    if not kids:
        return f
    if isinstance(f, (BoundedEventually, BoundedAlways)):
        return type(f)(f.bound, *kids)
    return type(f)(*kids)


def subformulas(phi, postorder=False):
    """Every node of phi, left to right, parents before their children
    (preorder) or after them (postorder).  A subtree that occurs twice is
    listed twice.  Iterative, so nesting depth is not limited by the
    interpreter's recursion limit."""
    out = []
    stack = [phi]
    while stack:
        f = stack.pop()
        out.append(f)
        kids = children(f)
        # Postorder is the reverse of a right-to-left preorder.
        stack.extend(kids if postorder else reversed(kids))
    return out[::-1] if postorder else out


def _map(phi, fn):
    """Rebuild phi top-down: each node f is replaced by fn(f), whose
    children are then mapped in turn.  fn sees the nodes in preorder."""
    done = []
    stack = [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        if expanded:
            k = len(children(f))
            kids = done[len(done) - k:]
            del done[len(done) - k:]
            done.append(rebuild(f, kids))
            continue
        f = fn(f)
        stack.append((f, True))
        stack.extend((c, False) for c in reversed(children(f)))
    return done[0]


def _has_var_bound(f):
    return isinstance(f, BoundedEventually) and isinstance(f.bound, VarBound)


def size(phi):
    """Node count of the AST."""
    return len(subformulas(phi))


def nesting_depth(phi):
    """Nodes on the longest root-to-leaf path (1 for a literal), counted
    level by level without recursion."""
    depth, level = 0, [phi]
    while level:
        depth += 1
        level = [c for f in level for c in children(f)]
    return depth


def variables(phi):
    """Parameter variable names occurring in phi, in syntactic order."""
    return list(dict.fromkeys(f.bound.name for f in subformulas(phi)
                              if _has_var_bound(f)))


def atoms(phi):
    """Proposition names occurring in phi, sorted."""
    return sorted({f.name for f in subformulas(phi)
                   if isinstance(f, (Atom, NegAtom))})


# ---------------------------------------------------------------------------
# Parser


_DIGITS = "0123456789"


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", None, self.pos)
        c = self.text[self.pos]
        start = self.pos
        if c in "!()&|[]":
            return (c, c, start)
        if self.text.startswith("<=", self.pos):
            return ("<=", "<=", start)
        if c in "XFGUR":
            return ("op", c, start)
        if c.islower():
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos:j], start)
        if c in _DIGITS:
            j = self.pos
            while j < len(self.text) and self.text[j] in _DIGITS:
                j += 1
            return ("nat", self.text[self.pos:j], start)
        raise ParseError("unexpected character %r" % c, start)

    def next(self):
        kind, value, start = self.peek()
        if kind != "eof":
            width = len(value) if kind in ("ident", "nat", "<=") else 1
            self.pos = start + width
        return (kind, value, start)

    def expect(self, kind):
        k, v, p = self.next()
        if k != kind:
            raise ParseError("expected %r, found %r" % (kind, v if v else "end of input"), p)
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
        if value == "F":
            bound = _parse_bound(lx, "F", pos)
            child = _parse_unary(lx, _deeper(depth, pos))
            return BoundedEventually(bound, child) if bound is not None else Eventually(child)
        if value == "G":
            bound = _parse_bound(lx, "G", pos)
            child = _parse_unary(lx, _deeper(depth, pos))
            return BoundedAlways(bound, child) if bound is not None else Always(child)
        raise ParseError("operator %r needs a left operand" % value, pos)
    raise ParseError("expected a formula, found %r" % (value if value else "end of input"), pos)


# ---------------------------------------------------------------------------
# Normal forms


def to_nnf(phi):
    """Push negations to the atoms using the standard dualities.

    Raises FragmentError when pushing a negation through a parametric
    bound would be required (that combination leaves the supported
    fragment).
    """
    return _nnf(phi, False)


def _nnf(phi, neg):
    if isinstance(phi, Not):
        return _nnf(phi.child, not neg)
    if isinstance(phi, Atom):
        return NegAtom(phi.name) if neg else phi
    if isinstance(phi, NegAtom):
        return Atom(phi.name) if neg else phi
    if isinstance(phi, And):
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Or(l, r) if neg else And(l, r)
    if isinstance(phi, Or):
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return And(l, r) if neg else Or(l, r)
    if isinstance(phi, Next):
        return Next(_nnf(phi.child, neg))
    if isinstance(phi, Until):
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Release(l, r) if neg else Until(l, r)
    if isinstance(phi, Release):
        l, r = _nnf(phi.left, neg), _nnf(phi.right, neg)
        return Until(l, r) if neg else Release(l, r)
    if isinstance(phi, Eventually):
        c = _nnf(phi.child, neg)
        return Always(c) if neg else Eventually(c)
    if isinstance(phi, Always):
        c = _nnf(phi.child, neg)
        return Eventually(c) if neg else Always(c)
    if isinstance(phi, BoundedEventually):
        if neg:
            if isinstance(phi.bound, VarBound):
                raise FragmentError(
                    "negation of F[<=%s] %s is not expressible: the only "
                    "parametrized operator available is a bounded eventually"
                    % (phi.bound, phi.child))
            return BoundedAlways(phi.bound, _nnf(phi.child, True))
        return BoundedEventually(phi.bound, _nnf(phi.child, False))
    if isinstance(phi, BoundedAlways):
        c = _nnf(phi.child, neg)
        return BoundedEventually(phi.bound, c) if neg else BoundedAlways(phi.bound, c)
    raise TypeError("unknown node %r" % phi)


def rewrite_constant_bounds(phi):
    """Unfold F[<=c] / G[<=c] into nested X; output is constant-bound free."""
    def unfold(f):
        if isinstance(f, Not):
            raise FragmentError("cannot rewrite bounds under %r" % f)
        if not isinstance(f, (BoundedEventually, BoundedAlways)) \
                or isinstance(f.bound, VarBound):
            return f
        if f.bound.value == 0:
            # The result is not mapped again, only its children are.
            return unfold(f.child)
        op = Or if isinstance(f, BoundedEventually) else And
        out = f.child
        for _ in range(f.bound.value):
            out = op(f.child, Next(out))
        return out

    return _map(phi, unfold)


def rename_apart(phi):
    """Rename parameter variables so each occurs exactly once.

    Returns (formula, mapping) where mapping sends each fresh name back
    to the user-facing name it replaced.  Names that already occur once
    are kept.
    """
    counts = {}
    for f in subformulas(phi):
        if _has_var_bound(f):
            counts[f.bound.name] = counts.get(f.bound.name, 0) + 1
    seen = {}
    mapping = {}

    def fresh(f):
        if not _has_var_bound(f):
            return f
        name = f.bound.name
        if counts[name] == 1:
            mapping[name] = name
            return f
        k = seen.get(name, 0)
        seen[name] = k + 1
        new = "%s__%d" % (name, k)
        mapping[new] = name
        return BoundedEventually(VarBound(new), f.child)

    return _map(phi, fresh), mapping


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
    G F[<=x_i] a_i, else None."""
    if isinstance(phi, And):
        left, right = genbuchi_pairs(phi.left), genbuchi_pairs(phi.right)
        if left is None or right is None:
            return None
        return left + right
    if _is_buchi(phi):
        return [(phi.child.bound.name, phi.child.child.name)]
    return None


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
    # Every node kind but Not; constant bounds are grammar-sanctioned
    # and get unfolded later.
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
    assign = val.assignment if hasattr(val, "assignment") else val

    def bind(f):
        if not _has_var_bound(f):
            return f
        if f.bound.name not in assign:
            raise FormulaError("valuation does not assign variable %r"
                               % f.bound.name)
        return BoundedEventually(ConstBound(assign[f.bound.name]), f.child)

    return _map(phi, bind)


def closure(phi):
    """The distinct subformulas of phi, children before their parents
    (so literals come first), in a deterministic order."""
    return list(dict.fromkeys(subformulas(phi, postorder=True)))


def unfolded_size(phi):
    """size(rewrite_constant_bounds(phi)), counted without unfolding."""
    sizes = []
    for f in subformulas(phi, postorder=True):
        k = len(children(f))
        below = sum(sizes[len(sizes) - k:])
        del sizes[len(sizes) - k:]
        if isinstance(getattr(f, "bound", None), ConstBound):
            # c unfoldings, each an operator, a next and a child copy.
            sizes.append(f.bound.value * (below + 2) + below)
        else:
            sizes.append(below + 1)
    return sizes[0]


def unfolded_depth(phi):
    """nesting_depth(rewrite_constant_bounds(phi)), counted without
    unfolding."""
    depths = []
    for f in subformulas(phi, postorder=True):
        k = len(children(f))
        below = max(depths[len(depths) - k:], default=0)
        del depths[len(depths) - k:]
        if isinstance(getattr(f, "bound", None), ConstBound):
            # Each of the c unfoldings adds an operator over a next.
            depths.append(below + 2 * f.bound.value)
        else:
            depths.append(below + 1)
    return depths[0]


def strip_params(phi):
    """Replace every parametric bounded eventually by a plain eventually."""
    return _map(phi, lambda f: Eventually(f.child) if _has_var_bound(f) else f)
