"""The linear-combination core shared by every element type.

An element is a finite map ``coeffs`` from keys to nonzero coefficients
over a ``parent`` (a ring, an algebra or a module).  Coefficients are
either ground-field scalars (ring elements) or elements one level down
(a ring element for B, B^e and J; an element of B, B^e or J for the
labelled sums over a module's basis).  Subclasses declare that nesting
with ``coeff_class`` and ``coeff_parent``, the width of their own keys
with ``key_width`` (2 for pair-indexed B^e and J), and the bidegree of a
bare key with ``_key_bidegree``; everything linear lives here.

``terms()`` flattens an element into ground-field coordinates: pairs of
(flat key tuple, scalar) whose keys match the bidegree block bases, so
``(label, m1, m2, ring monomial)`` for N (x) J.  ``from_terms()`` is its
inverse.  With ``linalg.block_matrix`` and ``linalg.coordinates`` they
bridge elements and coordinate vectors; ``diff_block``, the differential
block of B, N and N (x) J, writes d of each unit basis element as a
column, and the J key maps in ``envelope`` give terms of the same shape,
in the elimination's raw scalars, for a block of keys at once, without
building an element.
``text_terms()``, where a subclass defines it, is the printed form of
``terms()``: (factor texts, scalar) pairs in print order, which the one
renderer ``render_terms`` writes for R, B, N, B^e and J.  ``_scale_by``
is the one scalar rule, every ``__rmul__`` and the fallback of ``__mul__``:
an int, read in the ground field, or a ``central`` scalar goes to ``scale``.
``_product`` is the one product rule, the bilinear extension of a product
of keys giving (scalar, key) or None, and ``_linear`` the one linear rule,
the linear extension of a map from a key to (key, coefficient) terms: B
and B^e multiply and differentiate through them, and pi is one.  R
multiplies its field scalars itself, and J, a sub-bimodule of B^e,
computes in B^e and reads the result back by sigma.
"""

from functools import wraps

from . import linalg
from .errors import ConstructionError


def memoised(fn):
    """Cache fn(owner, *args) in a table that owner keeps as its attribute
    ``_memo_<fn name>``, keyed by args.  The table holds only results, so
    it dies with its owner; a call that raises stores nothing.  Callers
    share a cached result and must not mutate it."""
    name = "_memo_" + fn.__name__
    missing = object()

    # getattr/setattr: reading owner.__dict__ would slow its other attributes;
    # a miss is a get, not a caught KeyError, since fresh owners miss often
    @wraps(fn)
    def cached(owner, *args):
        try:
            table = getattr(owner, name)
        except AttributeError:
            table = {}
            setattr(owner, name, table)
        value = table.get(args, missing)
        if value is missing:
            value = table[args] = fn(owner, *args)
        return value

    return cached


def merge(out, key, add):
    """out[key] += add, dropping the key when the sum vanishes."""
    s = out.get(key)
    s = add if s is None else s + add
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def render_terms(terms, times="*"):
    """`scalar*f1*f2...` per (factor texts, scalar) term, factors "1" dropped
    and a scalar 1 or -1 elided, joined by sign; "0" for no terms.  ``times``
    joins a scalar to its factors: "·" for B^e and J."""
    text = ""
    for factors, s in terms:
        mono = "*".join([f for f in factors if f != "1"]) or "1"
        txt = str(s)
        if txt == "1":
            term = mono
        elif txt == "-1":
            term = "-" + mono
        else:
            term = txt if mono == "1" else txt + times + mono
        if text:
            term = " - " + term[1:] if term[0] == "-" else " + " + term
        text += term
    return text or "0"


class LinComb:

    __slots__ = ("parent", "coeffs")

    coeff_class = None     # None: coefficients are ground-field scalars
    coeff_parent = "ring"  # attribute of the parent that owns the coefficients
    key_width = 1          # flat key components taken by one own key
    central = ()           # scalar classes that _scale_by multiplies by
    times = "*"            # joins a printed scalar to its factors

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @classmethod
    def _raw(cls, parent, coeffs):
        """Wrap a map already known to have valid keys and nonzero values."""
        el = cls.__new__(cls)
        el.parent = parent
        el.coeffs = coeffs
        return el

    def _check(self, other):
        if type(other) is not type(self) or not (
                self.parent is other.parent or self.parent == other.parent):
            raise ConstructionError("%s and %s do not share a parent"
                                    % (type(self).__name__, type(other).__name__))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.parent is other.parent or self.parent == other.parent)
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merge(out, k, c)
        return self._raw(self.parent, out)

    def __neg__(self):
        return self._raw(self.parent, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return render_terms(self.text_terms(), self.times)

    def scale(self, s):
        """Multiply every coefficient on the right by s."""
        return self._raw(self.parent, {k: v for k, c in self.coeffs.items()
                                       if (v := c * s)})

    def _scale_by(self, other):
        """The one scalar rule: ``scale`` by an int, read in the ground
        field, or by an instance of ``central``; NotImplemented otherwise."""
        if isinstance(other, int):
            other = self.parent.field.of(other)
        if isinstance(other, self.central):
            return self.scale(other)
        return NotImplemented

    def _product(self, other, key_mul):
        """The one product rule: the bilinear extension of ``key_mul(k1,
        k2)``, (scalar, key) or None when the product of two keys vanishes.
        Coefficients multiply self's on the left, then scale by the scalar."""
        self._check(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                hit = key_mul(k1, k2)
                if hit is not None:
                    merge(out, hit[1], (c1 * c2).scale(hit[0]))
        return self._raw(self.parent, out)

    def _linear(self, key_map):
        """The one linear rule: the linear extension of ``key_map(key)``,
        (key, coefficient) pairs, as a coefficient dict: self's coefficient
        at a key multiplies each coefficient of its image from the right."""
        out = {}
        for k, c in self.coeffs.items():
            for k2, t in key_map(k):
                merge(out, k2, t * c)
        return out

    # -- grading ------------------------------------------------------------------

    def _key_bidegree(self, key):
        raise NotImplementedError

    def bidegrees(self):
        """The set of bidegrees of the homogeneous components."""
        out = set()
        for k, c in self.coeffs.items():
            n, w = self._key_bidegree(k)
            if self.coeff_class is None:
                out.add((n, w))
            else:
                out.update((n + cn, w + cw) for cn, cw in c.bidegrees())
        return out

    def bidegree(self):
        """(homological, internal) bidegree of a homogeneous element; (0, 0) for 0."""
        found = self.bidegrees()
        if len(found) > 1:
            raise ConstructionError("element is not bihomogeneous")
        return found.pop() if found else (0, 0)

    # -- coordinates ----------------------------------------------------------------

    def terms(self):
        """(flat key, scalar) pairs: the element's ground-field coordinates."""
        wide = self.key_width > 1
        for k, c in self.coeffs.items():
            head = k if wide else (k,)
            if self.coeff_class is None:
                yield head, c
            else:
                for sub, s in c.terms():
                    yield head + sub, s

    @classmethod
    def from_terms(cls, parent, terms):
        """The element with the given (flat key, scalar) coordinates."""
        width = cls.key_width
        if cls.coeff_class is None:
            out = {}
            for (k,), s in terms:
                out[k] = out[k] + s if k in out else s
            return cls(parent, out)
        groups = {}
        for flat, s in terms:
            key = flat[0] if width == 1 else flat[:width]
            groups.setdefault(key, []).append((flat[width:], s))
        sub_parent = getattr(parent, cls.coeff_parent)
        return cls(parent, {k: cls.coeff_class.from_terms(sub_parent, sub)
                            for k, sub in groups.items()})

    @classmethod
    def diff_block(cls, parent, basis, n, w, field):
        """d from the (n, w) block to (n-1, w), ``basis(n, w)`` the keys of a
        block: column j is d of the unit element at the j-th key."""
        one = field.one
        return linalg.block_matrix(
            [cls.from_terms(parent, [(key, one)]).diff().terms() for key in basis(n, w)],
            basis(n - 1, w), field)
