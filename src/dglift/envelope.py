"""The enveloping algebra B^e = B^o (x) B and its diagonal ideal J.

Elements of B^e are stored as maps (m1, m2) -> ring coefficient over pairs
of algebra monomials, read as m1^o (x) m2 . r; coefficients are central so
one ring element per pair suffices.  The twisted product is

    (b1^o (x) b2)(b1'^o (x) b2') = (-1)^{|b1'|(|b1|+|b2|)} (b1' b1)^o (x) b2 b2'

and the differential acts by d(b1)^o (x) b2 + (-1)^{|b1|} b1^o (x) d(b2),
where the opposite factor differentiates through d(b^o) = (d b)^o.

The multiplication map pi(b1^o (x) b2) = b1 b2 splits off B via
rho(b) = 1^o (x) b, and J = ker(pi) is spanned by the corrections

    sigma(m1^o (x) m2) = m1^o (x) m2 - 1^o (x) m1 m2,   m1 != 1.

DiagonalElement stores members of J by their coordinates against exactly
this family ("sigma coordinates"); for an element already in J these are
just its raw coefficients at pairs with m1 != 1, so conversion both ways
is lossless.  The universal derivation delta(b) = b^o (x) 1 - 1^o (x) b
lands in J and, in sigma coordinates, simply re-reads the monomials of b
as pairs (m, 1).

Both are ``LinComb`` elements: ints, field scalars and ring elements act
through its one scalar rule, and its one renderer prints each term as
`m1^o⊗m2`, then ` · r` for a ring monomial r != 1, in the order and with
the monomial texts of ``mono_print``.  J prints as the element of B^e
that it is, read from its sigma keys: their pairs, and the m1 = 1 pairs
of -pi of them, with no B^e element built.  B^e
multiplies by its product rule over ``pair_mul``, which holds the twist,
and differentiates by its linear rule over ``pair_diff``.  B acts on the
left as op_inclusion(b) . u, since (b^o (x) 1)(b1^o (x) b2) = (b b1)^o (x) b2,
and on the right as u . rho(b); pi is the linear rule over ``mono_mul``.
J is a DG sub-bimodule of B^e, so ``DiagonalElement`` computes in B^e:
d(j), b . j, j . b and j . u are sigma of B^e's on ``to_envelope(j)``,
exactly, since sigma keeps precisely the m1 != 1 coordinates of an element
of J.  No element rule calls the J key maps below, which give d(j),
b . j and j . b for a block of J basis keys at once, in the raw scalars
the elimination works in.  Only the builder of the gamma-system and
``diagonal_diff_block``, the matrix of d_J that ``homology`` reads, write
from them, each on its own call, so no matrix is shared between the two;
the witness and certificate checkers, computing by element rules, share
only the bases with the builder.
"""

from . import linalg
from .coefficients import RingElement
from .errors import ConstructionError
from .free_dga import AlgebraElement
from .lincomb import LinComb, memoised, merge


def pair_text(left, right):
    """`m1^o⊗m2` from the texts of m1 and m2, the left monomial bracketed
    when it is a product or power."""
    if "*" in left or "^" in left:
        left = "(%s)" % left
    return "%s^o⊗%s" % (left, right)


def _pair_text_terms(B, terms):
    """(factor texts, scalar) pairs of (m1, m2, ring monomial, scalar)
    terms of B^e, in print order: by m1, then m2, then the ring monomial,
    each in its ``mono_print`` order, and each `m1^o⊗m2`, then ` · r`
    when the ring monomial r is not 1."""
    printed, ring_printed = B.mono_print, B.ring.mono_print
    out = []
    for (_, t1), (_, t2), (_, r), s in sorted(
            (printed(m1), printed(m2), ring_printed(rm), s) for m1, m2, rm, s in terms):
        txt = pair_text(t1, t2)
        out.append(((txt if r == "1" else txt + " · " + r,), s))
    return out


class _PairIndexed(LinComb):
    """Pair-indexed maps (m1, m2) -> ring coefficient, read as m1^o (x) m2 . r."""

    __slots__ = ()
    algebra = LinComb.parent
    coeff_class = RingElement
    key_width = 2
    central = AlgebraElement.central
    times = "·"

    def _key_bidegree(self, pair):
        B = self.parent
        m1, m2 = pair
        return (B.mono_degree(m1) + B.mono_degree(m2),
                B.mono_weight(m1) + B.mono_weight(m2))

    def text_terms(self):
        """(factor texts, scalar) pairs in print order, one factor each:
        `m1^o⊗m2`, then ` · r` when the ring monomial r is not 1."""
        return _pair_text_terms(self.parent, [(m1, m2, rm, s) for (m1, m2), c in
                                              self.coeffs.items() for rm, s in c.coeffs.items()])


class EnvelopeElement(_PairIndexed):
    """An element of B^e as a pair-indexed coefficient map."""

    __slots__ = ()

    def __mul__(self, other):
        B = self.parent
        if isinstance(other, EnvelopeElement):
            return self._product(other, lambda p, q: pair_mul(B, p, q))
        if isinstance(other, AlgebraElement):
            return self * rho(other)  # right action: b1^o(x)b2 . b = b1^o(x)b2 b
        return self._scale_by(other)

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return op_inclusion(other) * self  # (b^o(x)1)(b1^o(x)b2) = (b b1)^o(x)b2
        return self._scale_by(other)

    def diff(self):
        B = self.parent
        return self._raw(B, self._linear(lambda pair: pair_diff(B, pair)))


def pair_mul(B, p, q):
    """(scalar, pair) for the twisted product of the pairs p = (m1, m2)
    and q = (n1, n2), (-1)^{|n1|(|m1|+|m2|)} (n1 m1)^o (x) m2 n2, or None
    when it vanishes."""
    (m1, m2), (n1, n2) = p, q
    left = B.mono_mul(n1, m1)
    right = None if left is None else B.mono_mul(m2, n2)
    if right is None:
        return None
    s = left[0] * right[0]
    odd = B.mono_degree(n1) * (B.mono_degree(m1) + B.mono_degree(m2)) % 2
    return (-s if odd else s), (left[1], right[1])


def pair_diff(B, pair):
    """(pair, ring coefficient) terms of d(m1^o (x) m2) by the Leibniz
    rule: d(m1)^o (x) m2 + (-1)^{|m1|} m1^o (x) d(m2)."""
    m1, m2 = pair
    for mu, cu in B.mono_diff(m1).items():
        yield (mu, m2), cu
    odd = B.mono_degree(m1) % 2
    for nu, cv in B.mono_diff(m2).items():
        yield (m1, nu), -cv if odd else cv


class DiagonalElement(_PairIndexed):
    """An element of the diagonal ideal J in sigma coordinates.

    ``coeffs`` maps pairs (m1, m2) with m1 != 1 to ring coefficients; the
    element is sum coeffs[(m1,m2)] . (m1^o (x) m2 - 1^o (x) m1 m2).
    """

    __slots__ = ()

    def __init__(self, algebra, coeffs):
        super().__init__(algebra, coeffs)
        if any(m1 == algebra.unit_mono for m1, _ in self.coeffs):
            raise ConstructionError("sigma coordinates require m1 != 1")

    def to_envelope(self):
        """The raw pairs less rho(pi) of them: pi reads the pairs as an
        element of B^e, and -pi is merged into the m1 = 1 slot."""
        unit = self.parent.unit_mono
        out = dict(self.coeffs)
        for m, c in pi(self).coeffs.items():
            merge(out, (unit, m), -c)
        return EnvelopeElement._raw(self.parent, out)

    # J is a DG sub-bimodule of B^e: d, b . j and j . b are B^e's, and
    # sigma reads the result back
    def diff(self):
        return sigma(self.to_envelope().diff())

    def __mul__(self, other):
        if isinstance(other, (AlgebraElement, EnvelopeElement)):
            return sigma(self.to_envelope() * other)
        return self._scale_by(other)

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return sigma(other * self.to_envelope())
        return self._scale_by(other)

    def text_terms(self):
        """The text terms of the element of B^e that it is, ``to_envelope``'s,
        read from the sigma keys: its pairs, and the m1 = 1 pairs of -pi of
        them, merged by monomial and ring monomial."""
        B = self.parent
        unit, mul = B.unit_mono, B.mono_mul
        terms, minus_pi = [], {}
        for (m1, m2), c in self.coeffs.items():
            hit = mul(m1, m2)
            for rm, s in c.coeffs.items():
                terms.append((m1, m2, rm, s))
                if hit is not None:
                    merge(minus_pi, (hit[1], rm), -(s * hit[0]))
        terms += [(unit, m, rm, s) for (m, rm), s in minus_pi.items()]
        return _pair_text_terms(B, terms)


# -- the canonical splitting ----------------------------------------------------


def pi(u: EnvelopeElement) -> AlgebraElement:
    """Multiplication map B^e -> B, m1^o (x) m2 -> m1 m2."""
    B = u.algebra
    return AlgebraElement._raw(B, u._linear(
        lambda pair: [] if (hit := B.mono_mul(*pair)) is None else [hit[::-1]]))


def rho(b: AlgebraElement) -> EnvelopeElement:
    """Algebra section b -> 1^o (x) b."""
    B = b.algebra
    return EnvelopeElement._raw(B, {(B.unit_mono, m): c for m, c in b.coeffs.items()})


def op_inclusion(b: AlgebraElement) -> EnvelopeElement:
    """The opposite-side inclusion b -> b^o (x) 1."""
    B = b.algebra
    return EnvelopeElement._raw(B, {(m, B.unit_mono): c for m, c in b.coeffs.items()})


def sigma(u: EnvelopeElement) -> DiagonalElement:
    """Retraction B^e -> J, u -> u - rho(pi(u)).

    In pair coordinates this keeps exactly the coefficients at m1 != 1.
    """
    B = u.algebra
    return DiagonalElement._raw(B, {k: c for k, c in u.coeffs.items()
                                    if k[0] != B.unit_mono})


def delta(b: AlgebraElement) -> DiagonalElement:
    """Universal derivation b -> b^o (x) 1 - 1^o (x) b = sigma(b^o (x) 1)."""
    return sigma(op_inclusion(b))


# -- graded bases of B^e and J ----------------------------------------------------


def envelope_basis(B, n, w):
    """Ground-field basis of (B^e)_(n, w): (m1, m2, ring monomial) triples,
    sorted by (mono_key(m1), mono_key(m2), ring_mono_key(rm)): the m1 = 1
    block, which is B_(n, w), then the keys of J_(n, w)."""
    return ([(B.unit_mono, m2, rm) for m2, rm in B.bidegree_basis(n, w)]
            + diagonal_block_keys(B, n, w))


@memoised
def diagonal_block_keys(B, n, w):
    """(m1, m2, ring monomial) keys of J_(n, w): each monomial m1 != 1 of
    degree d1 <= n, in order, times the basis of B_(n - d1, w - wt m1).
    Every variable X has internal degree w_X >= 1, so a monomial of weight
    at most w has degree at most max_X floor(w d_X / w_X), and no larger
    d1 is visited: a huge n costs nothing at a small w.

    The list is cached on B and shared between callers: do not mutate it.
    """
    top = min(n, max((w * d // wt for d, wt in zip(B.degrees, B.weights)), default=0))
    return [(m1, m2, rm) for d1 in range(1, top + 1) for m1 in B.monomial_basis(d1)
            for m2, rm in B.bidegree_basis(n - d1, w - B.mono_weight(m1))]


# Each J basis vector j = sigma(m1^o (x) m2) . rm, m1 != 1, has the key
# (m1, m2, rm).  The three maps below take a list of such keys, a block's,
# and give for each key the (key, raw scalar) terms of d(j), b . j or
# j . b as a list, each key at most once: distinct monomials have distinct
# products with a fixed monomial, and the two groups of d(j) and of b . j
# differ in the degree or the unit-ness of a slot.  The scalars are the
# elimination's own (``field.raw``), so the gamma-system builder and the
# d_J block write them as they come; no element rule reads these maps.


def _ring_times(R, c, rm, t, p):
    """The (ring monomial, raw scalar) terms of the ring element c times
    the ring monomial rm and the raw scalar t, over F_p for p > 0: c's own
    monomials when rm is 1, since c is in normal form."""
    raw, mul = R.field.raw, R.mono_mul
    out = []
    for e, s in c.coeffs.items():
        if rm != R.unit_mono:
            e = mul(e, rm)
            if e is None:
                continue
        out.append((e, raw(s) * t % p if p else raw(s) * t))
    return out


@memoised
def _diff_times(B, m, rm, t):
    """[(monomial, ring monomial, raw scalar)] of d(m) . rm . t, for the
    monomial m, the ring monomial rm and the raw sign t: the pieces that
    ``diagonal_key_diff`` assembles, shared by every block of one call."""
    R, p = B.ring, B.field.char
    return [(mu, e, s) for mu, c in B.mono_diff(m).items()
            for e, s in _ring_times(R, c, rm, t, p)]


def diagonal_key_diff(B, keys, negate=False):
    """d(j) for each key j, negated with ``negate``: sigma commutes with
    the differentials, so differentiate the raw pair and drop the
    components with m1 = 1 that sigma kills."""
    unit, field = B.unit_mono, B.field
    plus, minus = field.raw(field.one), field.raw(-field.one)
    if negate:
        plus, minus = minus, plus
    images = []
    last = None
    for m1, m2, rm in keys:
        if m1 != last:  # the keys run m1 by m1
            last = m1
            t = minus if B.mono_degree(m1) % 2 else plus
        images.append([((mu, m2, e), s) for mu, e, s in _diff_times(B, m1, rm, plus)
                       if mu != unit]
                      + [((m1, nu, e), s) for nu, e, s in _diff_times(B, m2, rm, t)])
    return images


def diagonal_key_left(B, b, keys):
    """b . j = sigma((b m1)^o (x) m2) . rm - sigma(b^o (x) m1 m2) . rm for
    each key j."""
    R, unit, mul, raw, p = B.ring, B.unit_mono, B.mono_mul, B.field.raw, B.field.char
    images = []
    for m1, m2, rm in keys:
        image = [((hit[1], m2, e), s) for m, c in b.coeffs.items() if (hit := mul(m, m1))
                 for e, s in _ring_times(R, c, rm, raw(hit[0]), p)]
        inner = mul(m1, m2)
        if inner is not None:
            mono, t = inner[1], raw(-inner[0])
            image += [((m, mono, e), s) for m, c in b.coeffs.items() if m != unit
                      for e, s in _ring_times(R, c, rm, t, p)]
        images.append(image)
    return images


def diagonal_key_right(B, keys, b, negate=False):
    """j . b for each key j, negated with ``negate``: the right action
    keeps sigma coordinates, the second slot multiplies."""
    R, mul, raw, p = B.ring, B.mono_mul, B.field.raw, B.field.char
    return [[((m1, hit[1], e), s) for m, c in b.coeffs.items() if (hit := mul(m2, m))
             for e, s in _ring_times(R, c, rm, raw(-hit[0] if negate else hit[0]), p)]
            for m1, m2, rm in keys]


def diagonal_basis(B, n, w):
    """Basis of J_(n, w): DiagonalElements sigma(m1^o (x) m2) . r, m1 != 1."""
    return [DiagonalElement.from_terms(B, [(key, B.field.one)])
            for key in diagonal_block_keys(B, n, w)]


def diagonal_label(B, key):
    m1, m2, rm = key
    txt = "σ(%s)" % pair_text(B.mono_print(m1)[1], B.mono_print(m2)[1])
    r_txt = B.ring.mono_print(rm)[1]
    return txt if r_txt == "1" else txt + "·" + r_txt


def diagonal_diff_block(B, n, w) -> linalg.BlockMatrix:
    """The differential of J as a matrix from the (n, w) block to (n-1, w),
    written from ``diagonal_key_diff`` as the γ-system builder writes its
    d(j) piece."""
    return linalg.raw_block(diagonal_key_diff(B, diagonal_block_keys(B, n, w)),
                            diagonal_block_keys(B, n - 1, w), B.field)


def diagonal_homology_dim(B, n, w) -> int:
    """dim H_(n, w) of the diagonal ideal J."""
    return linalg.homology_dim(diagonal_diff_block(B, n + 1, w),
                               diagonal_diff_block(B, n, w))
