"""Strictly commutative free DG extensions B = R<X_1,...,X_n>.

Each adjoined variable X carries a homological degree |X| >= 1, an internal
degree w(X) >= 1, and a differential image dX which must be a cycle built
from variables declared before X.  An internal degree left undeclared is
the one dX forces, else |X|.  Variables of odd homological degree are
exterior (X^2 = 0); variables of even degree come with the full divided
power family Y^(n), multiplying by

    Y^(m) * Y^(n) = binomial(m+n, n) * Y^(m+n)

and differentiating by d(Y^(n)) = Y^(n-1) * dY.  These are the rules that
make the extension well behaved over every coefficient field, including
positive characteristic where Y^(n) is not n-th-power-over-factorial.

A monomial is an exponent tuple aligned with the variable list (odd
exponents capped at 1).  Products of monomials pick up the Koszul sign
counting inversions among odd letters; the differential expands by the
Leibniz rule over the factors.  Elements are monomial -> RingElement maps.
"""

from math import comb, log10
from operator import add, mul

from .coefficients import (RingElement, TOO_LONG, digit_limit, element_text,
                           exponent_vectors, too_long)
from .lincomb import LinComb, memoised, merge
from .errors import (ConstructionError, CycleViolation, ForwardReference,
                     GradingViolation)


class Variable:
    """A declared generator: name, homological degree, internal degree.

    An internal degree of None is undeclared: the algebra settles it from
    dX.  The differential image is held by the algebra, not the variable,
    since it is an element of the algebra being built.
    """

    __slots__ = ("name", "degree", "weight")

    def __init__(self, name, degree, weight):
        if not isinstance(degree, int) or degree < 1:
            raise GradingViolation("variable %s needs homological degree >= 1" % name)
        if weight is not None and (not isinstance(weight, int) or weight < 1):
            raise GradingViolation("variable %s needs internal degree >= 1" % name)
        self.name = name
        self.degree = degree
        self.weight = weight

    @property
    def is_odd(self):
        return self.degree % 2 == 1

    def __repr__(self):
        return "%s:(%d,%d)" % (self.name, self.degree, self.weight)


def _binomial(n, k, field):
    """C(n, k), for 0 < k < n, as a scalar of ``field``, bounded before it
    is built.  Over F_p by Lucas' theorem: the product of the binomials of
    the base-p digits, each a running product mod p.  Over QQ a
    ConstructionError when it has more digits than the integer-string
    limit: C(n, k) >= (n/k)^k rules out a large one unbuilt (an lgamma
    estimate overflows or cancels for a huge n and a small k), an exact
    comparison the rest."""
    p = field.char
    if p:
        num = den = 1
        while k:
            n, ni = divmod(n, p)
            k, ki = divmod(k, p)
            if ki > ni:
                return field.zero
            for j in range(min(ki, ni - ki)):
                num = num * (ni - j) % p
                den = den * (j + 1) % p
        return field.of(num * pow(den, -1, p))
    k = min(k, n - k)
    limit = digit_limit()
    if not limit or log10(n) - log10(k) <= (limit + 1) / k:
        value = comb(n, k)
        if not too_long(value):
            return field.of(value)
    raise ConstructionError(TOO_LONG % limit)


class FreeDGAlgebra:
    """R<X_1,...,X_n> with prescribed differentials on the generators.

    ``diff_data`` maps variable names to elements given as raw coefficient
    dictionaries {monomial exponents: RingElement} (or None for zero).
    Construction walks the variables in order and validates that dX only
    involves earlier variables, that dX is homogeneous of homological
    degree |X| - 1, and that d(dX) = 0.  It measures dX with the earlier
    variables' settled internal degrees: a declared w(X) must equal dX's,
    an undeclared one (None) becomes dX's, or |X| when dX = 0.  ``vars``
    hold the settled degrees.  ``diffs`` and ``mono_diff``'s table hold
    coefficient dicts, not elements whose parent is the algebra, so the
    algebra is freed by reference counting alone.
    """

    def __init__(self, ring, variables, diff_data=None):
        self.ring = ring
        self.field = ring.field
        names = [v.name for v in variables]
        if len(names) != len(set(names)):
            raise ConstructionError("duplicate variable name")
        clash = set(names) & set(ring.gens)
        if clash:
            raise ConstructionError("variable name %s clashes with a ring generator"
                                    % sorted(clash)[0])
        self._index = {name: i for i, name in enumerate(names)}
        self.unit_mono = (0,) * len(names)
        # per-variable gradings, aligned with a monomial's exponents; the
        # weights grow as they settle, and dX has no exponent past X's
        self.degrees = tuple(v.degree for v in variables)
        self.weights = []
        self.odd = tuple(v.is_odd for v in variables)
        diff_data = diff_data or {}
        settled, diffs = [], []
        for i, v in enumerate(variables):
            el = AlgebraElement(self, diff_data.get(v.name) or {})
            for mono in el.coeffs:
                if any(mono[i:]):
                    raise ForwardReference(
                        "d%s uses a variable not declared before %s" % (v.name, v.name))
            weight = v.weight
            if el.coeffs:
                found = el.bidegrees()
                if len(found) > 1:
                    raise GradingViolation("d%s is not homogeneous" % v.name)
                ((n, w),) = found
                if n != v.degree - 1:
                    raise GradingViolation(
                        "d%s has homological degree %d, expected %d"
                        % (v.name, n, v.degree - 1))
                if weight is None:
                    weight = w
                elif w != weight:
                    raise GradingViolation(
                        "d%s has internal degree %d, expected %d" % (v.name, w, weight))
            elif weight is None:
                weight = v.degree
            settled.append(Variable(v.name, v.degree, weight))
            self.weights.append(weight)
            diffs.append(el)
        self.vars = tuple(settled)
        self.weights = tuple(self.weights)
        self.diffs = tuple(d.coeffs for d in diffs)
        for v, d in zip(self.vars, diffs):
            dd = d.diff()
            if dd:
                text, shown = element_text(dd)
                raise CycleViolation("d(d%s) = %s is nonzero" % (v.name, text) if shown
                                     else "d(d%s) is nonzero: %s" % (v.name, text))

    def __eq__(self, other):
        return (isinstance(other, FreeDGAlgebra)
                and self.ring == other.ring
                and [(v.name, v.degree, v.weight) for v in self.vars]
                == [(v.name, v.degree, v.weight) for v in other.vars]
                and self.diffs == other.diffs)

    def __repr__(self):
        vars_txt = ", ".join("%s:%d" % (v.name, v.degree) for v in self.vars)
        diffs_txt = ", ".join("d%s = %s" % (v.name, AlgebraElement(self, d))
                              for v, d in zip(self.vars, self.diffs))
        return "%r<%s | %s>" % (self.ring, vars_txt, diffs_txt)

    # -- monomials ------------------------------------------------------------

    def mono_degree(self, mono):
        return sum(map(mul, mono, self.degrees))

    def mono_weight(self, mono):
        return sum(map(mul, mono, self.weights))

    def mono_key(self, mono):
        return (self.mono_degree(mono), mono)

    @memoised
    def mono_mul(self, a, b):
        """(scalar, monomial) for the product, or None when it vanishes.

        One pass over the variables in order: an odd letter squared
        vanishes, two even exponents multiply by their binomial, and the
        Koszul sign counts, at each odd letter of a, the odd letters of b
        before it, which move left past it.  The first vanishing letter
        ends the pass, before the binomials of later letters are built."""
        field = self.field
        coeff = field.one
        exps = tuple(map(add, a, b))
        odd_b = inv = 0
        for x, y, e, odd in zip(a, b, exps, self.odd):
            if odd:
                if e > 1:
                    return None
                if x:
                    inv += odd_b
                odd_b += y
            elif x and y:
                coeff = coeff * _binomial(e, x, field)
        scalar = -coeff if inv % 2 else coeff
        return (scalar, exps) if scalar else None

    def render_mono(self, mono):
        parts = []
        for v, e in zip(self.vars, mono):
            if e == 0:
                continue
            if v.is_odd or e == 1:
                parts.append(v.name)
            else:
                parts.append("%s^(%d)" % (v.name, e))
        return "*".join(parts) if parts else "1"

    @memoised
    def mono_print(self, mono):
        """(sort key, text) of a monomial, as the printers order and write
        it: ``mono_key`` and ``render_mono``."""
        return self.mono_key(mono), self.render_mono(mono)

    @memoised
    def mono_diff(self, mono):
        """d of a single monomial, as a coefficient dict {monomial: ring
        element}, by the Leibniz rule over its factors:
        mono = head * factor i * tail, with d(Y^(e)) = Y^(e-1) dY for an
        even factor, gives the terms (head * m) * tail of each monomial m
        of dX_i, each scaled by the two products' scalars and by the sign
        of the factors before i."""
        mul = self.mono_mul
        out = {}
        prefix_parity = 0
        for i, (odd, d) in enumerate(zip(self.odd, self.degrees)):
            e = mono[i]
            if e:
                head = mono[:i] + (0 if odd else e - 1,) + self.unit_mono[i + 1:]
                tail = self.unit_mono[:i + 1] + mono[i + 1:]
                for m, c in self.diffs[i].items():
                    hit = mul(head, m)
                    if hit is None:
                        continue
                    s1, m1 = hit
                    hit = mul(m1, tail)
                    if hit is None:
                        continue
                    s2, m2 = hit
                    s = s1 * s2
                    merge(out, m2, c.scale(-s if prefix_parity else s))
                prefix_parity = (prefix_parity + e * d) % 2
        return out

    # -- element constructors --------------------------------------------------

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {self.unit_mono: self.ring.one()})

    def mono_element(self, mono):
        return AlgebraElement(self, {mono: self.ring.one()})

    def gen(self, name):
        i = self._index[name]
        return self.mono_element(self.unit_mono[:i] + (1,) + self.unit_mono[i + 1:])

    def divided_power(self, name, n):
        i = self._index[name]
        if self.vars[i].is_odd:
            raise ConstructionError("divided powers only exist for even variables")
        return self.mono_element(self.unit_mono[:i] + (n,) + self.unit_mono[i + 1:])

    def from_ring(self, r):
        if r.ring != self.ring:
            raise ConstructionError("coefficient from a different base ring")
        return AlgebraElement(self, {self.unit_mono: r}) if r else self.zero()

    # -- graded bases -----------------------------------------------------------

    @memoised
    def monomial_basis(self, n):
        """Monomials of homological degree n, in the fixed order: the
        enumeration's lexicographic order is ``mono_key``'s at one degree."""
        squares = [self.unit_mono[:i] + (2,) + self.unit_mono[i + 1:]
                   for i, odd in enumerate(self.odd) if odd]
        return exponent_vectors(self.degrees, n, squares)

    @memoised
    def bidegree_basis(self, n, w):
        """Ground-field basis of the (n, w) piece: (monomial, ring monomial)."""
        return [(mono, rm) for mono in self.monomial_basis(n)
                for rm in self.ring.graded_basis(w - self.mono_weight(mono))]

    def diff_block(self, n, w):
        """The differential as a matrix from the (n, w) piece to (n-1, w)."""
        return AlgebraElement.diff_block(self, self.bidegree_basis, n, w, self.field)


class AlgebraElement(LinComb):
    """Finite sum of monomials with normal-form ring coefficients."""

    __slots__ = ()
    algebra = LinComb.parent
    coeff_class = RingElement
    central = (RingElement,) + RingElement.central  # degree 0, so central

    def _key_bidegree(self, mono):
        return self.parent.mono_degree(mono), self.parent.mono_weight(mono)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self._scale_by(other)
        return self._product(other, self.parent.mono_mul)

    __rmul__ = LinComb._scale_by

    def diff(self):
        B = self.parent
        return self._raw(B, self._linear(lambda mono: B.mono_diff(mono).items()))

    def text_terms(self):
        """(factor texts, scalar) pairs in print order."""
        printed = self.parent.mono_print
        return [((text,) + texts, s)
                for (_, text), c in sorted((printed(m), c) for m, c in self.coeffs.items())
                for texts, s in c.text_terms()]
