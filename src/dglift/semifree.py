"""Finitely generated semifree DG modules and the complex N (x) J.

A semifree module is given by an ordered basis e_1 < ... < e_k with
bidegrees and a strictly upper triangular structure matrix over B:

    d(e_lam) = sum_{mu < lam} e_mu . b[mu][lam].

A basis element's internal degree may be left undeclared (None): it is
the one its column forces, w(e_lam) = w(e_mu) + w(b[mu][lam]), settled in
basis order, else 0.  Validation checks the bidegree of every entry
against the settled degrees and the componentwise form of d^2 = 0,

    sum_{nu < mu < lam} b[nu][mu] b[mu][lam] + (-1)^{|e_nu|} d(b[nu][lam]) = 0,

reporting the first failing (nu, lam) pair.  It is d of column lam, read
as sum_mu e_mu b[mu][lam], by ``diff_by_index``, the one d on N: keyed by
basis index, it also serves every labelled sum's ``diff``.

Elements of N, of N (x) J, and (transiently) of N (x) B^e are maps from
basis labels to coefficients in B, J, and B^e respectively.  The tensor
differential uses the left action of B on the second factor:

    d(e_lam (x) j) = sum_mu e_mu (x) (b[mu][lam] . j) + (-1)^{|e_lam|} e_lam (x) d(j).

The graded splittings rho_N (e_lam b -> e_lam (x) 1^o (x) b) and sigma_N
(applied slotwise) satisfy the section/retraction identities but are not
chain maps; their failure to commute with d is exactly what the
obstruction machinery in `obstruction` measures.
"""

from . import linalg
from .coefficients import element_text
from .envelope import (DiagonalElement, EnvelopeElement, diagonal_block_keys,
                       diagonal_label, pi, rho, sigma)
from .errors import (ConstructionError, DegreeMismatch,
                     DifferentialSquareNonzero, TriangularityViolation)
from .free_dga import AlgebraElement, FreeDGAlgebra
from .lincomb import LinComb, merge


class SemifreeModule:

    def __init__(self, algebra, labels, degrees, weights, structure):
        """structure maps (mu_label, lam_label) -> AlgebraElement, mu before
        lam; a weight of None is settled from lam's column."""
        self.algebra = algebra
        self.labels = tuple(labels)
        if len(self.labels) != len(set(self.labels)):
            raise ConstructionError("duplicate basis label")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.degrees = tuple(degrees)
        if len(self.degrees) != len(self.labels) or len(weights) != len(self.labels):
            raise ConstructionError("need one bidegree per basis label")
        # columns[j]: the (i, b[i][j]) entries of d(e_j), in structure order,
        # the one copy of d on the basis
        self.columns = [[] for _ in self.labels]
        for (mu, lam), b in structure.items():
            if not b:
                continue
            i, j = self.index[mu], self.index[lam]
            if i >= j:
                raise TriangularityViolation(
                    "entry d(%s) -> %s is not strictly triangular" % (lam, mu))
            self.columns[j].append((i, b))
        # bidegrees in basis order, so that w(e_mu) is settled before its
        # entry b[mu][lam] settles or checks w(e_lam)
        settled = []
        for j, (lam, column) in enumerate(zip(self.labels, self.columns)):
            weight = weights[j]
            for i, b in column:
                found = b.bidegrees()
                if len(found) > 1:
                    raise DegreeMismatch("entry for (%s, %s) is not homogeneous"
                                         % (self.labels[i], lam))
                ((n, w),) = found
                if n != self.degrees[j] - self.degrees[i] - 1:
                    raise DegreeMismatch(
                        "entry for (%s, %s) has homological degree %d, expected %d"
                        % (self.labels[i], lam, n, self.degrees[j] - self.degrees[i] - 1))
                if weight is None:
                    weight = settled[i] + w
                elif w != weight - settled[i]:
                    raise DegreeMismatch(
                        "entry for (%s, %s) has internal degree %d, expected %d"
                        % (self.labels[i], lam, w, weight - settled[i]))
            settled.append(0 if weight is None else weight)
        self.weights = tuple(settled)
        # componentwise d^2 = 0: square[nu] is the e_nu component of d(d(e_lam))
        for lam, column in zip(self.labels, self.columns):
            square = self.diff_by_index(column)
            if square:
                nu = min(square)
                pair = (self.labels[nu], lam)
                text, shown = element_text(square[nu])
                raise DifferentialSquareNonzero(
                    "d^2 has nonzero component %s at (%s, %s)" % (text, *pair) if shown
                    else "d^2 has nonzero component at (%s, %s): %s" % (*pair, text),
                    pair=pair)

    @property
    def rank(self):
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, SemifreeModule)
                and self.algebra == other.algebra
                and self.labels == other.labels
                and self.degrees == other.degrees
                and self.weights == other.weights
                and [{i: b.coeffs for i, b in column} for column in self.columns]
                == [{i: b.coeffs for i, b in column} for column in other.columns])

    def __repr__(self):
        basis = ", ".join("%s:(%d,%d)" % (lab, n, w)
                          for lab, n, w in zip(self.labels, self.degrees, self.weights))
        return "SemifreeModule<%s>" % basis

    def diff_by_index(self, items):
        """d(sum_j e_j c_j) for (j, c_j) items as {i: coefficient}:
        d(e_j c) = sum_i e_i b[i][j] c + (-1)^{|e_j|} e_j d(c)."""
        out = {}
        for j, c in items:
            for i, entry in self.columns[j]:
                merge(out, i, entry * c)
            dc = c.diff()
            merge(out, j, -dc if self.degrees[j] % 2 else dc)
        return out

    # -- elements of N ---------------------------------------------------------

    def element(self, coeffs):
        return ModuleElement(self, coeffs)

    def zero(self):
        return ModuleElement(self, {})

    def gen(self, label):
        if label not in self.index:
            raise KeyError("no basis label %r" % label)
        return ModuleElement(self, {label: self.algebra.one()})

    # -- elements of N (x) J and N (x) B^e ---------------------------------------

    def tensor_zero(self):
        return TensorJElement(self, {})

    def rho_n(self, v):
        """Graded section N -> N (x) B^e, e_lam b -> e_lam (x) (1^o (x) b)."""
        return TensorEnvElement(self, {lab: rho(b) for lab, b in v.coeffs.items()})

    def sigma_n(self, t):
        """Graded retraction N (x) B^e -> N (x) J, sigma applied slotwise."""
        return TensorJElement(self, {lab: sigma(u) for lab, u in t.coeffs.items()})

    def pi_n(self, t):
        """N (x) B^e -> N, e_lam (x) (b1^o (x) b2) -> e_lam b1 b2."""
        return ModuleElement(self, {lab: pi(u) for lab, u in t.coeffs.items()})

    # -- bidegree blocks ----------------------------------------------------------

    def labelled_basis(self, block, n, w):
        """The keys of a labelled sum's (n, w) piece: (label,) + key for each
        basis label e and each key of the coefficients' block(B, n - |e|, w - w(e))."""
        B = self.algebra
        return [(lab,) + key
                for lab, d, wt in zip(self.labels, self.degrees, self.weights)
                for key in block(B, n - d, w - wt)]

    def basis_of_bidegree(self, n, w):
        """(label, monomial, ring monomial) basis of N_(n, w)."""
        return self.labelled_basis(FreeDGAlgebra.bidegree_basis, n, w)

    def diff_block(self, n, w) -> linalg.BlockMatrix:
        """The differential of N from the (n, w) block to (n-1, w)."""
        return ModuleElement.diff_block(self, self.basis_of_bidegree, n, w,
                                        self.algebra.field)

    def tensor_keys(self, n, w):
        """(label, m1, m2, ring monomial) index keys for (N (x) J)_(n, w)."""
        return self.labelled_basis(diagonal_block_keys, n, w)

    def tensor_vec(self, t, keys):
        return linalg.coordinates(t.terms(), keys, self.algebra.field)

    def tensor_key_label(self, key):
        lab = key[0]
        return "%s⊗%s" % (lab, diagonal_label(self.algebra, key[1:]))

    def tensor_diff_block(self, n, w) -> linalg.BlockMatrix:
        """The differential of N (x) J from the (n, w) block to (n-1, w)."""
        return TensorJElement.diff_block(self, self.tensor_keys, n, w, self.algebra.field)


class LabelledSum(LinComb):
    """sum e_lam (x) c_lam over the basis labels of a semifree module.

    The subclasses fix the coefficients: B for N itself, J for N (x) J and
    B^e for N (x) B^e.  Multiplication by an element of B acts on the
    coefficients from the right.
    """

    __slots__ = ()
    module = LinComb.parent
    coeff_parent = "algebra"

    def __init__(self, module, coeffs):
        super().__init__(module, coeffs)
        for lab in self.coeffs:
            if lab not in module.index:
                raise ConstructionError("unknown basis label %r" % lab)

    def _key_bidegree(self, lab):
        i = self.parent.index[lab]
        return self.parent.degrees[i], self.parent.weights[i]

    __mul__ = LinComb.scale

    def diff(self):
        """d(e_lam c) = sum_mu e_mu b[mu][lam] c + (-1)^{|e_lam|} e_lam d(c)."""
        N = self.parent
        out = N.diff_by_index((N.index[lab], c) for lab, c in self.coeffs.items())
        return self._raw(N, {N.labels[i]: c for i, c in out.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%s ⊗ (%s)" % (lab, self.coeffs[lab])
                          for lab in self.parent.labels if lab in self.coeffs)


class ModuleElement(LabelledSum):
    """sum e_lam . b_lam with coefficients in B."""

    __slots__ = ()
    coeff_class = AlgebraElement

    def text_terms(self):
        """(factor texts, scalar) pairs in print order."""
        return [((lab,) + texts, s) for lab in self.parent.labels
                if lab in self.coeffs for texts, s in self.coeffs[lab].text_terms()]

    __repr__ = LinComb.__repr__


class TensorJElement(LabelledSum):
    """sum e_lam (x) j_lam with coefficients in the diagonal ideal."""

    __slots__ = ()
    coeff_class = DiagonalElement


class TensorEnvElement(LabelledSum):
    """sum e_lam (x) u_lam over B^e; the transient middle of the splitting."""

    __slots__ = ()
    coeff_class = EnvelopeElement
