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
`m1^o⊗m2`, then ` · r` for a ring monomial r != 1; J prints in B^e.  B^e
multiplies by its product rule over ``pair_mul``, which holds the twist,
and differentiates by its linear rule over ``pair_diff``.  B acts on the
left as op_inclusion(b) . u, since (b^o (x) 1)(b1^o (x) b2) = (b b1)^o (x) b2,
and on the right as u . rho(b); pi is the linear rule over ``mono_mul``.
J is a DG sub-bimodule of B^e, so ``DiagonalElement`` computes in B^e:
d(j), b . j, j . b and j . u are sigma of B^e's on ``to_envelope(j)``,
exactly, since sigma keeps precisely the m1 != 1 coordinates of an element
of J.  No element rule calls the maps on one J basis key below.  Only the
builder of the gamma-system and ``diagonal_diff_block``, the matrix of d_J
that ``homology`` reads, write from them, each on its own call, so no
matrix is shared between the two; the witness and certificate checkers,
computing by element rules, share only the bases with the builder.
"""

from . import linalg
from .coefficients import RingElement
from .errors import ConstructionError
from .free_dga import AlgebraElement
from .lincomb import LinComb, memoised, merge


def pair_text(algebra, m1, m2):
    """`m1^o⊗m2`, the left monomial bracketed when it is a product or power."""
    left = algebra.render_mono(m1)
    if "*" in left or "^" in left:
        left = "(%s)" % left
    return "%s^o⊗%s" % (left, algebra.render_mono(m2))


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
        B = self.parent
        key, render = B.mono_key, B.ring.render_mono
        out = []
        for pair in sorted(self.coeffs, key=lambda p: (key(p[0]), key(p[1]))):
            txt = pair_text(B, *pair)
            for rm, s in self.coeffs[pair].sorted_terms():
                r = render(rm)
                out.append(((txt if r == "1" else txt + " · " + r,), s))
        return out


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

    def text_terms(self):  # printed as the element of B^e that it is
        return self.to_envelope().text_terms()


# -- the canonical splitting ----------------------------------------------------


def pi(u: EnvelopeElement) -> AlgebraElement:
    """Multiplication map B^e -> B, m1^o (x) m2 -> m1 m2."""
    B = u.algebra
    return AlgebraElement._raw(B, u._linear(
        lambda pair: [] if (hit := B.mono_mul(*pair)) is None else [hit[::-1]]))


def rho(b: AlgebraElement) -> EnvelopeElement:
    """Algebra section b -> 1^o (x) b."""
    B = b.algebra
    return EnvelopeElement(B, {(B.unit_mono, m): c for m, c in b.coeffs.items()})


def op_inclusion(b: AlgebraElement) -> EnvelopeElement:
    """The opposite-side inclusion b -> b^o (x) 1."""
    B = b.algebra
    return EnvelopeElement(B, {(m, B.unit_mono): c for m, c in b.coeffs.items()})


def sigma(u: EnvelopeElement) -> DiagonalElement:
    """Retraction B^e -> J, u -> u - rho(pi(u)).

    In pair coordinates this keeps exactly the coefficients at m1 != 1.
    """
    B = u.algebra
    return DiagonalElement(B, {k: c for k, c in u.coeffs.items()
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
# (m1, m2, rm).  The three maps below give the (key, scalar) terms of d(j),
# b . j and j . b for one such key, each key at most once: distinct
# monomials have distinct products with a fixed monomial, and the two
# groups of d(j) and of b . j differ in the degree or the unit-ness of a
# slot.  The gamma-system builder and the d_J block write from them; no
# element rule reads them.


def _shifted(R, c, rm):
    """(ring monomial, scalar) terms of the ring element c times rm: the
    terms of c itself when rm is 1, since c is in normal form."""
    if rm == R.unit_mono:
        return c.coeffs.items()
    mul = R.mono_mul
    return [(prod, s) for e, s in c.coeffs.items() if (prod := mul(e, rm)) is not None]


def diagonal_key_diff(B, key):
    """d(j): sigma commutes with the differentials, so differentiate the
    raw pair and drop the components with m1 = 1 that sigma kills."""
    m1, m2, rm = key
    R, unit = B.ring, B.unit_mono
    for mu, cu in B.mono_diff(m1).items():
        if mu != unit:
            for prod, s in _shifted(R, cu, rm):
                yield (mu, m2, prod), s
    odd = B.mono_degree(m1) % 2
    for nu, cv in B.mono_diff(m2).items():
        for prod, s in _shifted(R, cv, rm):
            yield (m1, nu, prod), -s if odd else s


def diagonal_key_left(B, b, key):
    """b . j = sigma((b m1)^o (x) m2) . rm - sigma(b^o (x) m1 m2) . rm."""
    m1, m2, rm = key
    R, unit = B.ring, B.unit_mono
    inner = B.mono_mul(m1, m2)
    for m, cb in b.coeffs.items():
        terms = _shifted(R, cb, rm)
        hit = B.mono_mul(m, m1)
        if hit is not None:
            scalar, mono = hit
            for prod, s in terms:
                yield (mono, m2, prod), s * scalar
        if m != unit and inner is not None:
            scalar, mono = inner
            for prod, s in terms:
                yield (m, mono, prod), -(s * scalar)


def diagonal_key_right(B, key, b):
    """j . b: the right action keeps sigma coordinates, the second slot
    multiplies."""
    m1, m2, rm = key
    R = B.ring
    for m, cb in b.coeffs.items():
        hit = B.mono_mul(m2, m)
        if hit is not None:
            scalar, mono = hit
            for prod, s in _shifted(R, cb, rm):
                yield (m1, mono, prod), s * scalar


def diagonal_basis(B, n, w):
    """Basis of J_(n, w): DiagonalElements sigma(m1^o (x) m2) . r, m1 != 1."""
    return [DiagonalElement.from_terms(B, [(key, B.field.one)])
            for key in diagonal_block_keys(B, n, w)]


def diagonal_label(B, key):
    m1, m2, rm = key
    txt = "σ(%s)" % pair_text(B, m1, m2)
    r_txt = B.ring.render_mono(rm)
    return txt if r_txt == "1" else txt + "·" + r_txt


def diagonal_diff_block(B, n, w) -> linalg.BlockMatrix:
    """The differential of J as a matrix from the (n, w) block to (n-1, w),
    written from ``diagonal_key_diff`` as the γ-system builder writes its
    d(j) piece."""
    return linalg.block_matrix(
        diagonal_block_keys(B, n, w), diagonal_block_keys(B, n - 1, w),
        lambda key: diagonal_key_diff(B, key), B.field)


def diagonal_homology_dim(B, n, w) -> int:
    """dim H_(n, w) of the diagonal ideal J."""
    return linalg.homology_dim(diagonal_diff_block(B, n + 1, w),
                               diagonal_diff_block(B, n, w))
