"""Graded coefficient rings with exact arithmetic.

A base ring is either a ground field (the rationals, or a prime field) or a
graded quotient k[x_1..x_m]/I of a polynomial ring by a *monomial* ideal,
with every generator carrying a positive internal degree.  Monomial ideals
keep normal forms trivial: a monomial is zero exactly when some relation
monomial divides it, so reduction is a divisibility test and needs no
Groebner machinery.  All graded pieces are finite dimensional over the
ground field, which is what makes every downstream solve exact and finite.

Monomials are exponent tuples aligned with the generator list.  The fixed
monomial order is descending lexicographic on exponent vectors (so x-pure
monomials print and enumerate before y-pure ones); every basis listed by
this module is ordered that way.
"""

import sys
from fractions import Fraction
from operator import add, le, mul, neg

from . import linalg
from .errors import ConstructionError
from .lincomb import LinComb, memoised, merge


class ModP:
    """An element of the prime field Z/p, normalised to 0 <= v < p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.v - other.v, self.p)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModP(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return ModP(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return str(self.v)


class Field:
    """The ground field of characteristic ``char``: the rationals, whose
    scalars are Fractions, for 0, else the prime field F_p, whose scalars
    are ModP values.  ``PrimeField`` checks p; ``QQ`` is Field(0)."""

    def __init__(self, char):
        self.char = char
        self.name = "FF(%d)" % char if char else "QQ"
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, n):
        return ModP(n, self.char) if self.char else Fraction(n)

    def raw(self, s):
        """The elimination's own scalar of the field scalar s: over F_p its
        residue, the int 0 <= s.v < p, over the rationals s itself."""
        return s.v if self.char else s

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(self.char)

    def __repr__(self):
        return self.name


# Miller-Rabin to the first 13 prime bases is exact below PRIME_LIMIT, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for 0 <= n < PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def PrimeField(p):
    """The prime field F_p, for a prime p below PRIME_LIMIT."""
    if p >= PRIME_LIMIT:
        raise ConstructionError("characteristic must be below %d, the limit "
                                "of the exact primality test" % PRIME_LIMIT)
    if not is_prime(p):
        raise ConstructionError("characteristic %r is not prime" % (p,))
    return Field(p)


QQ = Field(0)

TOO_LONG = "coefficient exceeds the %d-digit limit for integers"


# digit_limit(): the interpreter's integer-string digit limit; 0 when there is none
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def too_long(n):
    """Whether the integer n has more digits than ``str`` may print."""
    limit = digit_limit()  # 10**limit has more than 3 * limit bits
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def element_text(element):
    """(str(element), True), or (the TOO_LONG text, False) if str cannot print it."""
    try:
        return str(element), True
    except ValueError:
        return TOO_LONG % digit_limit(), False


def mono_divides(small, big):
    return all(map(le, small, big))


def exponent_vectors(degrees, total, relations):
    """Every exponent vector e, in lexicographic order, with sum(e_i *
    degrees[i]) == total that no relation (a nonzero exponent vector)
    divides, for positive degrees; none when total < 0.  A relation is
    tested where its last generator is placed, the prefix it lives on then
    being complete: divisibility is monotone in that exponent, so when the
    prefix is divisible by the relation's other exponents the loop ends
    below the relation's last one.  No excluded vector is built.  The last
    exponent is solved for, so a lone generator costs no loop at all."""
    if total < 0 or not degrees:
        return [()] if total == 0 else []
    placed = [[] for _ in degrees]  # the relations by their last generator
    for rel in relations:
        i = max(j for j, e in enumerate(rel) if e)
        placed[i].append((rel[:i], rel[i]))

    def bound(prefix, e, rels):
        # the least of e and the exponents below those of the relations on prefix
        for head, top in rels:
            if top <= e and mono_divides(head, prefix):
                e = top - 1
        return e

    found = [((), total)]
    for d, rels in zip(degrees[:-1], placed):
        found = [(prefix + (e,), rest - e * d) for prefix, rest in found
                 for e in range(bound(prefix, rest // d, rels) + 1)]
    d, rels = degrees[-1], placed[-1]
    return [prefix + (rest // d,) for prefix, rest in found
            if rest % d == 0 and bound(prefix, rest // d, rels) == rest // d]


def ring_mono_key(exps):
    # descending lexicographic; ties cannot occur
    return tuple(map(neg, exps))


class BaseRing:
    """k[x_1..x_m]/(monomial relations) with positive generator degrees.

    With no generators this is just the ground field concentrated in
    internal degree 0.  Relation monomials are reduced to the minimal
    generating set (pairwise non-divisible) at construction.
    """

    def __init__(self, field, gens=(), degrees=(), relations=()):
        self.field = field
        self.gens = tuple(gens)
        self.degrees = tuple(degrees)
        if len(self.gens) != len(set(self.gens)):
            raise ConstructionError("duplicate ring generator")
        if len(self.degrees) != len(self.gens):
            raise ConstructionError("need one internal degree per generator")
        for name, d in zip(self.gens, self.degrees):
            if not isinstance(d, int) or d <= 0:
                raise ConstructionError(
                    "generator %s has non-positive internal degree %r" % (name, d))
        rels = []
        for rel in relations:
            rel = tuple(rel)
            if len(rel) != len(self.gens) or any(e < 0 for e in rel) or not any(rel):
                raise ConstructionError("relation %r is not a monomial in the generators" % (rel,))
            rels.append(rel)
        # keep only the divisibility-minimal relations, deduplicated
        rels = sorted(set(rels), key=ring_mono_key)
        minimal = [r for r in rels
                   if not any(s != r and mono_divides(s, r) for s in rels)]
        self.relations = tuple(minimal)
        self.unit_mono = (0,) * len(self.gens)

    @property
    def is_field(self):
        return not self.gens

    def __eq__(self, other):
        return (isinstance(other, BaseRing)
                and self.field == other.field
                and self.gens == other.gens
                and self.degrees == other.degrees
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.field, self.gens, self.degrees, self.relations))

    def __repr__(self):
        """The ring in the problem language, as `ring R = ...` writes it."""
        if self.is_field:
            return self.field.name
        gens = ",".join("%s:%d" % (n, d) for n, d in zip(self.gens, self.degrees))
        txt = "%s[%s]" % (self.field.name, gens)
        if self.relations:
            txt += "/(%s)" % ", ".join(self.render_mono(r) for r in self.relations)
        return txt

    # -- monomial arithmetic ------------------------------------------------

    def mono_weight(self, exps):
        return sum(map(mul, exps, self.degrees))

    def mono_reduced(self, exps):
        return not any(mono_divides(rel, exps) for rel in self.relations)

    @memoised
    def mono_mul(self, a, b):
        prod = tuple(map(add, a, b))
        return prod if self.mono_reduced(prod) else None

    def render_mono(self, exps):
        parts = []
        for name, e in zip(self.gens, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    @memoised
    def mono_print(self, exps):
        """(sort key, text) of a monomial, as the printers order and write
        it: by weight, then ``ring_mono_key``."""
        return (self.mono_weight(exps), ring_mono_key(exps)), self.render_mono(exps)

    # -- elements ------------------------------------------------------------

    def element(self, coeffs):
        return RingElement(self, coeffs)

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return RingElement(self, {self.unit_mono: self.field.one})

    def gen(self, name):
        if name not in self.gens:
            raise KeyError("no ring generator named %r" % name)
        i = self.gens.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return RingElement(self, {exps: self.field.one})

    @memoised
    def graded_basis(self, w):
        """Ordered monomial basis of the internal-degree-w piece: the
        enumeration's lexicographic order reversed, ``ring_mono_key``'s."""
        return exponent_vectors(self.degrees, w, self.relations)[::-1]


class RingElement(LinComb):
    """A normal-form element: monomial exponent tuple -> nonzero scalar."""

    __slots__ = ()
    ring = LinComb.parent
    central = (Fraction, ModP)

    def __init__(self, ring, coeffs):
        # the ideal reduction: monomials divisible by a relation are zero
        self.parent = ring
        self.coeffs = {e: c for e, c in coeffs.items() if c and ring.mono_reduced(e)}

    def _key_bidegree(self, exps):
        return 0, self.parent.mono_weight(exps)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return self._scale_by(other)
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                prod = self.parent.mono_mul(e1, e2)
                if prod is not None:
                    merge(out, prod, c1 * c2)
        return self._raw(self.parent, out)

    __rmul__ = LinComb._scale_by

    def weight(self):
        """Internal degree of a homogeneous element (0 for the zero element)."""
        return self.bidegree()[1]

    def text_terms(self):
        """(factor texts, scalar) pairs in print order."""
        printed = self.parent.mono_print
        return [((text,), c) for (_, text), c in sorted(
            (printed(e), c) for e, c in self.coeffs.items())]


def multiplication_block(ring, a, w_src):
    """The block of multiplication by the homogeneous element a on R_{w_src}."""
    return _products_block(ring, [a], w_src + a.weight())


def _products_block(ring, factors, w):
    """The block [a_1 | a_2 | ...] of multiplication by the homogeneous
    factors, each from R_{w - |a_i|} into R_w: a column per factor and
    monomial of its source."""
    one = ring.field.one
    return linalg.block_matrix(
        [[((e,), s) for e, s in (ring.element({m: one}) * a).coeffs.items()]
         for a in factors for m in ring.graded_basis(w - a.weight())],
        [(m,) for m in ring.graded_basis(w)], ring.field)


def principal_intersection_dim(ring, a, b, w):
    """dim of (aR cap bR) in internal degree w, for homogeneous a, b.

    Computed from the rank identity dim(U cap V) = dim U + dim V - dim(U+V)
    applied to the column spaces of the two multiplication blocks.
    """
    dim_a = linalg.rank(multiplication_block(ring, a, w - a.weight()))
    dim_b = linalg.rank(multiplication_block(ring, b, w - b.weight()))
    return dim_a + dim_b - linalg.rank(_products_block(ring, [a, b], w))
