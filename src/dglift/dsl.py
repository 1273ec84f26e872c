"""The line-oriented problem description language.

A problem file declares one ring, one algebra, and any number of modules:

    # the liftable example
    ring R = QQ[x:1,y:1]/(x*y)
    algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
    module N over B = <e:0, ep:4 | de = 0, dep = e*X*Y*y>

Expressions are sums of signed products of atoms; an atom is an integer
scalar, a rational scalar p/q, a declared name, a plain power `x^2`, or a
divided power `Y^(n)` (even algebra variables only).  Each term is folded,
left to right, straight to one scalar times one monomial, with the Koszul
signs and binomials of the algebra and the monomial relations of the ring;
no element is built until the terms are summed.  A plain power of an even
variable is a divided power times a factorial, Y^n = n! Y^(n): over FF(p)
it is 0 once n >= p, and over QQ an n! with more digits than the
interpreter's integer-string limit is a parse error, even in a term that
would cancel.  Odd squares vanish.  Whitespace is insignificant and `#`
starts a comment.

Internal degrees are optional: a third field declares one (`X:1:2`,
`e:0:3`), and the constructors settle the rest in declaration order, each
the one its differential forces, else the homological degree of a variable
and 0 for a basis element.  The reader computes no bidegree: an algebra's
or a module's weight errors are the constructors'.

One walk, `_read_diffs`, reads the `| d<name> = ...` part of algebra and
module declarations alike and yields each differential as it is read, so
a line's defects are reported in reading order; a repeated d<name> is a
parse error.

Each line is read as tokens that are their own values: a name or a symbol
is its text, an integer its int, and the end of the line None; a name is a
text outside the symbol set.  A ring line's construction errors (its
field, its generators, its relations) are parse errors of the line, exit 2
on the command line.  An algebra's or a module's are construction errors,
exit 1, that carry the line of their declaration.
"""

import re
from fractions import Fraction
from math import factorial, lgamma, log

from .coefficients import (BaseRing, PrimeField, QQ, RingElement, TOO_LONG,
                           digit_limit, too_long)
from .errors import ConstructionError, ParseError, UndeclaredName
from .free_dga import AlgebraElement, FreeDGAlgebra, Variable
from .lincomb import merge
from .semifree import ModuleElement, SemifreeModule

_SYMBOLS = frozenset("<>|,:/()*+-^=[]")
# one alternative per token kind; the last catches any other character
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([%s])|(\S))"
                    % re.escape("".join(_SYMBOLS)))


class _Tokens:
    """A cursor over the tokens of one line, each its own value: a name or
    a symbol is its text, an integer its int, and the end of the line None."""

    def __init__(self, text, line_no):
        self.tokens = []
        for name, digits, sym, bad in _TOKEN.findall(text):
            if digits:
                try:
                    self.tokens.append(int(digits))
                except ValueError:  # beyond the interpreter's digit limit
                    raise ParseError("integer literal of %d digits is too long"
                                     % len(digits), line_no)
            elif bad:
                raise ParseError("unexpected character %r" % bad, line_no)
            else:
                self.tokens.append(name or sym)
        self.tokens.append(None)
        self.line = line_no
        self.pos = 0

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, *symbols):
        return self.tokens[self.pos] in symbols

    def eat_sym(self, symbol):
        if self.tokens[self.pos] == symbol:
            self.pos += 1
            return True
        return False

    def error(self, expected, tok):
        """The ParseError "expected <expected>, found <tok>" on this line,
        where the end of the line, None, reads "end of line"."""
        found = "end of line" if tok is None else repr(tok)
        return ParseError("expected %s, found %s" % (expected, found), self.line)

    def expect_sym(self, symbol):
        tok = self.next()
        if tok != symbol:
            raise self.error(repr(symbol), tok)

    def expect_name(self):
        tok = self.next()
        if tok.__class__ is not str or tok in _SYMBOLS:
            raise self.error("a name", tok)
        return tok

    def expect_int(self):
        sign = -1 if self.eat_sym("-") else 1
        tok = self.next()
        if tok.__class__ is not int:
            raise self.error("an integer", tok)
        return sign * tok

    def done(self):
        return self.tokens[self.pos] is None

    def expect_done(self):
        if not self.done():
            raise ParseError("trailing input %r" % (self.tokens[self.pos],), self.line)


class ProblemDescription:
    """A parsed problem: the ring, the algebra and the modules (a dict
    name -> SemifreeModule, a new empty one by default), each with its
    declared name.  Two problems are equal when every field is."""

    def __init__(self, ring_name, ring, algebra_name, algebra, modules=None):
        self.ring_name = ring_name
        self.ring = ring
        self.algebra_name = algebra_name
        self.algebra = algebra
        self.modules = {} if modules is None else modules

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


# -- expression evaluation --------------------------------------------------------


def _env(ring, variables=()):
    """Names in scope: ring generators and algebra variables, each with the
    exponent tuple of the generator."""
    env = {}
    for i, g in enumerate(ring.gens):
        env[g] = ("ring", tuple(int(j == i) for j in range(len(ring.gens))))
    for i, v in enumerate(variables):
        env[v.name] = ("var", (v, tuple(int(j == i) for j in range(len(variables)))))
    return env


def _factorial(n, field, line):
    """n! in the field, the scalar of Y^n = n! Y^(n), bounded before it is
    built: over F_p 0 once n >= p, else a running product reduced mod p;
    over QQ a ParseError when n! has more digits than the interpreter's
    integer-string limit."""
    p = field.char
    if p:
        if n >= p:
            return field.zero
        value = 1
        for k in range(2, n + 1):
            value = value * k % p
        return field.of(value)
    limit = digit_limit()
    if limit:
        digits = lgamma(min(n, 10 ** 300) + 1) / log(10)  # log10(n!), clamped
        if digits > limit + 1 or (digits > limit - 1 and too_long(factorial(n))):
            raise ParseError(TOO_LONG % limit, line)
    return field.of(factorial(n))


def _parse_factor(ts, env, field):
    """One factor, a power read in place: ("scalar", int or Fraction),
    ("label", label), ("ring", monomial) or ("alg", (scalar, monomial))."""
    tok = ts.next()
    if tok.__class__ is int:
        if ts.eat_sym("/"):
            den = ts.expect_int()
            if den == 0:
                raise ParseError("zero denominator", ts.line)
            return "scalar", Fraction(tok, den)
        return "scalar", tok
    if tok is None or tok in _SYMBOLS:
        raise ts.error("a factor", tok)
    if tok not in env:
        raise UndeclaredName("undeclared name %r" % tok, ts.line)
    kind, base = env[tok]
    if not ts.eat_sym("^"):
        return ("alg", (field.one, base[1])) if kind == "var" else (kind, base)
    divided = ts.eat_sym("(")
    n = ts.expect_int()
    if divided:
        ts.expect_sym(")")
    if n < 0:
        raise ParseError("negative divided power" if divided
                         else "negative exponent", ts.line)
    if kind == "ring":
        if divided:
            raise ParseError("divided powers only apply to even algebra variables",
                             ts.line)
        if not n:
            raise ParseError("zero exponent is not part of the grammar", ts.line)
        return "ring", tuple(n * e for e in base)
    if kind != "var":
        raise ParseError("cannot raise %r to a power" % (kind,), ts.line)
    var, mono = base
    mono = tuple(n * e for e in mono)
    if var.is_odd:  # X^0 = 1, X^1 = X, X^n = 0 beyond
        if divided:
            raise ParseError("divided power of the odd variable %s" % var.name,
                             ts.line)
        return "alg", (field.zero if n > 1 else field.one, mono)
    return "alg", (field.one if divided else _factorial(n, field, ts.line), mono)


def _scalar(literal, field, line):
    """An int or Fraction literal as a scalar of ``field``.  QQ keeps the
    Fraction; F_p reduces numerator and denominator mod p."""
    if not isinstance(literal, Fraction):
        return field.of(literal)
    if not field.char:
        return literal
    if literal.denominator % field.char == 0:
        raise ParseError("denominator %d is zero in %s"
                         % (literal.denominator, field.name), line)
    return field.of(literal.numerator) / field.of(literal.denominator)


def _parse_term(ts, env, ring, algebra):
    """One signed product as (label, scalar, algebra monomial, ring monomial),
    folded left to right like the product of elements: the algebra's
    mono_mul gives Koszul signs and binomials, the ring's the relations.
    The scalar is zero when the product vanishes."""
    negate = ts.eat_sym("-")
    label = None
    seen_monomial = False
    field = ring.field
    scalar, rm = field.one, ring.unit_mono
    am = algebra.unit_mono if algebra is not None else ()
    while True:
        kind, payload = _parse_factor(ts, env, field)
        if kind == "label":
            # scalars may precede the label, monomial factors may not
            if label is not None or seen_monomial:
                raise ParseError("basis label %r must lead its term (after "
                                 "scalars)" % payload, ts.line)
            label = payload
        elif kind == "scalar":
            scalar = scalar * _scalar(payload, field, ts.line)
        elif kind == "ring":
            seen_monomial = True
            if scalar:
                rm = ring.mono_mul(rm, payload)
                if rm is None:
                    scalar = field.zero
        else:
            seen_monomial = True
            scalar = scalar * payload[0]
            if scalar:
                try:
                    hit = algebra.mono_mul(am, payload[1])
                except ConstructionError as exc:  # a binomial past the digit limit
                    raise ParseError(exc.message, ts.line)
                if hit is None:
                    scalar = field.zero
                else:
                    scalar, am = scalar * hit[0], hit[1]
        if not ts.eat_sym("*"):
            break
    return label, -scalar if negate else scalar, am, rm


def _parse_sum(ts, env, ring, algebra):
    """Sum of signed terms as {label or None: {algebra monomial: {ring
    monomial: scalar}}}, merged like element addition: a key whose sum
    vanishes is dropped, and comes back last if a later term adds it."""
    out = {}
    while True:
        label, s, am, rm = _parse_term(ts, env, ring, algebra)
        if s:
            by_am = out.setdefault(label, {})
            by_rm = by_am.setdefault(am, {})
            merge(by_rm, rm, s)
            if not by_rm:
                del by_am[am]
                if not by_am:
                    del out[label]
        if ts.eat_sym("+"):
            continue
        if ts.at_sym("-"):
            continue  # the leading minus of the next term
        break
    if not ring.field.char:
        # str cannot print a rational past the integer-string limit
        for by_am in out.values():
            for by_rm in by_am.values():
                for s in by_rm.values():
                    if too_long(s.numerator) or too_long(s.denominator):
                        raise ParseError(TOO_LONG % digit_limit(), ts.line)
    return out


def _parse_expression(ts, env, algebra):
    """Sum of signed terms; returns {label or None: AlgebraElement}."""
    ring = algebra.ring
    return {label: AlgebraElement._raw(algebra, {
                am: RingElement._raw(ring, by_rm) for am, by_rm in by_am.items()})
            for label, by_am in _parse_sum(ts, env, ring, algebra).items()}


def parse_algebra_element(problem, text):
    """Evaluate an expression (no module labels) in the problem's algebra."""
    B = problem.algebra
    ts = _Tokens(text, None)
    if ts.done():
        raise ParseError("empty expression")
    parts = _parse_expression(ts, _env(B.ring, B.vars), B)
    ts.expect_done()
    return parts.get(None, B.zero())


# -- declarations ------------------------------------------------------------------


def _parse_ring_tokens(ts):
    """The ring of a declaration; a ConstructionError of the field, of the
    probe ring the relations are read in, or of the ring itself is a
    ParseError of the line."""
    try:
        field_name = ts.expect_name()
        if field_name == "QQ":
            ground = QQ
        elif field_name == "FF":
            ts.expect_sym("(")
            p = ts.expect_int()
            ts.expect_sym(")")
            ground = PrimeField(p)
        else:
            raise ParseError("unknown ground field %r (use QQ or FF(p))"
                             % field_name, ts.line)
        gens, degrees = [], []
        if ts.eat_sym("["):
            while True:
                gens.append(ts.expect_name())
                ts.expect_sym(":")
                degrees.append(ts.expect_int())
                if ts.eat_sym("]"):
                    break
                ts.expect_sym(",")
        relations = []
        if ts.eat_sym("/"):
            ts.expect_sym("(")
            probe = BaseRing(ground, tuple(gens), tuple(degrees), [])
            env = _env(probe)
            while True:
                relations.append(_relation_monomial(
                    _parse_sum(ts, env, probe, None), ground, ts))
                if ts.eat_sym(")"):
                    break
                ts.expect_sym(",")
        return BaseRing(ground, tuple(gens), tuple(degrees), relations)
    except ConstructionError as exc:
        raise ParseError(str(exc), ts.line)


def _relation_monomial(parts, field, ts):
    if list(parts) != [None]:
        raise ParseError("a relation must be a single monomial", ts.line)
    (by_rm,) = parts[None].values()  # the one algebra monomial ()
    if list(by_rm.values()) != [field.one]:
        raise ParseError("a relation must be a monomial with coefficient 1", ts.line)
    return next(iter(by_rm))


def parse_ring(text):
    """The ring sub-grammar: `QQ`, `FF(p)`, `QQ[x:1,y:1]/(x*y, ...)`."""
    ts = _Tokens(text, None)
    ring = _parse_ring_tokens(ts)
    ts.expect_done()
    return ring


def _parse_specs(ts):
    """`name:degree[:weight], ...` as (name, degree, weight or None) triples."""
    specs = []
    while True:
        name = ts.expect_name()
        ts.expect_sym(":")
        degree = ts.expect_int()
        specs.append((name, degree, ts.expect_int() if ts.eat_sym(":") else None))
        if not ts.eat_sym(","):
            return specs


def _read_diffs(ts, names, kind, env, algebra):
    """The `| d<name> = expression, ...` part of a declaration: yields each
    (name, {label or None: AlgebraElement}) as soon as it is read, a name
    outside ``names`` or a repeated d<name> being a parse error."""
    if not ts.eat_sym("|"):
        return
    seen = set()
    while True:
        dname = ts.expect_name()
        if not dname.startswith("d") or dname[1:] not in names:
            raise ts.error("d<%s>" % kind, dname)
        if dname[1:] in seen:
            raise ParseError("%s is declared twice" % dname, ts.line)
        seen.add(dname[1:])
        ts.expect_sym("=")
        yield dname[1:], _parse_expression(ts, env, algebra)
        if not ts.eat_sym(","):
            return


def _parse_algebra_decl(ts, ring_name, ring):
    name = ts.expect_name()
    ts.expect_sym("=")
    used = ts.expect_name()
    if used != ring_name:
        raise UndeclaredName("undeclared ring %r" % used, ts.line)
    ts.expect_sym("<")
    specs = [] if ts.at_sym("|", ">") else _parse_specs(ts)
    try:
        variables = [Variable(*spec) for spec in specs]
        parsing = FreeDGAlgebra(ring, variables)  # to multiply dX's terms in
    except ConstructionError as exc:
        raise ParseError(str(exc), ts.line)
    # only ring generators and variables are in scope: no label
    env = _env(ring, parsing.vars)
    diffs = {v: parts[None].coeffs for v, parts in _read_diffs(
        ts, {s[0] for s in specs}, "variable", env, parsing) if None in parts}
    ts.expect_sym(">")
    return name, FreeDGAlgebra(ring, variables, diffs)


def _parse_module_decl(ts, algebra_name, B):
    name = ts.expect_name()
    kw = ts.expect_name()
    if kw != "over":
        raise ts.error("'over'", kw)
    used = ts.expect_name()
    if used != algebra_name:
        raise UndeclaredName("undeclared algebra %r" % used, ts.line)
    ts.expect_sym("=")
    ts.expect_sym("<")
    labels, degrees, weights = zip(*_parse_specs(ts))
    env = _env(B.ring, B.vars)
    env.update((lab, ("label", lab)) for lab in labels)
    structure = {}
    for lam, parts in _read_diffs(ts, labels, "basis label", env, B):
        if None in parts:
            raise ParseError("d%s has a component without a basis label" % lam, ts.line)
        structure.update(((mu, lam), value) for mu, value in parts.items())
    ts.expect_sym(">")
    return name, SemifreeModule(B, labels, degrees, weights, structure)


def default_module_weights(module):
    """The weights the module would settle with none declared: the last
    entry b[mu][lam] of a column forces lam's weight from mu's.  The module
    has checked that b[mu][lam] has weight w_lam - w_mu, so no entry's
    bidegree is recomputed."""
    weights = module.weights
    defaults = []
    for lam, column in enumerate(module.columns):
        if column:
            mu = column[-1][0]
            defaults.append(defaults[mu] + weights[lam] - weights[mu])
        else:
            defaults.append(0)
    return defaults


def parse_problem(text):
    ring_name = ring = algebra_name = algebra = None
    modules = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ts = _Tokens(line, line_no)
        head = ts.expect_name()
        try:
            if head == "ring":
                if ring is not None:
                    raise ParseError("a problem declares exactly one ring", line_no)
                ring_name = ts.expect_name()
                ts.expect_sym("=")
                ring = _parse_ring_tokens(ts)
                ts.expect_done()
            elif head == "algebra":
                if algebra is not None:
                    raise ParseError("a problem declares exactly one algebra",
                                     line_no)
                if ring is None:
                    raise ParseError("declare the ring before the algebra", line_no)
                algebra_name, algebra = _parse_algebra_decl(ts, ring_name, ring)
                ts.expect_done()
                if algebra_name == ring_name:
                    raise ParseError("name %r is already in use" % algebra_name,
                                     line_no)
            elif head == "module":
                if algebra is None:
                    raise ParseError("declare the algebra before any module",
                                     line_no)
                mname, module = _parse_module_decl(ts, algebra_name, algebra)
                ts.expect_done()
                if mname in (ring_name, algebra_name) or mname in modules:
                    raise ParseError("name %r is already in use" % mname, line_no)
                modules[mname] = module
            else:
                raise ParseError("unknown declaration %r" % head, line_no)
        except ConstructionError as exc:  # an algebra's or a module's check
            exc.line = line_no
            raise
    if algebra is None:
        raise ParseError("a problem needs a ring and an algebra", None)
    return ProblemDescription(ring_name, ring, algebra_name, algebra, modules)


# -- pretty printer ----------------------------------------------------------------


def _algebra_text(name, ring_name, B):
    vars_txt = []
    for v, d in zip(B.vars, B.diffs):
        if d or v.weight == v.degree:
            vars_txt.append("%s:%d" % (v.name, v.degree))
        else:
            vars_txt.append("%s:%d:%d" % (v.name, v.degree, v.weight))
    diffs_txt = ["d%s = %s" % (v.name, AlgebraElement(B, d))
                 for v, d in zip(B.vars, B.diffs)]
    inner = ", ".join(vars_txt)
    if diffs_txt:
        inner += " | " + ", ".join(diffs_txt)
    return "algebra %s = %s<%s>" % (name, ring_name, inner)


def _module_text(name, algebra_name, module):
    defaults = default_module_weights(module)
    basis_txt = []
    for i, lab in enumerate(module.labels):
        if module.weights[i] == defaults[i]:
            basis_txt.append("%s:%d" % (lab, module.degrees[i]))
        else:
            basis_txt.append("%s:%d:%d" % (lab, module.degrees[i],
                                           module.weights[i]))
    diff_txt = []
    for lam, column in zip(module.labels, module.columns):
        value = ModuleElement(module, {module.labels[i]: entry for i, entry in column})
        diff_txt.append("d%s = %s" % (lam, value))
    return "module %s over %s = <%s | %s>" % (
        name, algebra_name, ", ".join(basis_txt), ", ".join(diff_txt))


def print_problem(problem):
    lines = ["ring %s = %r" % (problem.ring_name, problem.ring),
             _algebra_text(problem.algebra_name, problem.ring_name,
                           problem.algebra)]
    for mname, module in problem.modules.items():
        lines.append(_module_text(mname, problem.algebra_name, module))
    return "\n".join(lines) + "\n"
