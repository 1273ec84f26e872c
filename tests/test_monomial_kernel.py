"""The monomial kernel against the generator-sum forms it replaced.

``FreeDGAlgebra`` and ``BaseRing`` read per-instance degree, weight and
parity tuples and reduce through ``map``; ``FreeDGAlgebra.mono_mul`` finds
the Koszul sign in one pass.  The former forms are kept below, and every
answer (a product, None, or the ConstructionError of a binomial past the
digit limit) must stay the same.
"""

import random
import sys

import pytest

from dglift import ConstructionError, FreeDGAlgebra, QQ, Variable
from dglift.coefficients import BaseRing, PrimeField, exponent_vectors, mono_divides
from dglift.free_dga import _binomial
from dglift.randomgen import random_algebra, standard_rings


def former_mono_divides(small, big):
    return all(a <= b for a, b in zip(small, big))


def former_ring_mono_weight(R, exps):
    return sum(e * d for e, d in zip(exps, R.degrees))


def former_ring_mono_mul(R, a, b):
    prod = tuple(x + y for x, y in zip(a, b))
    reduced = not any(former_mono_divides(rel, prod) for rel in R.relations)
    return prod if reduced else None


def former_mono_degree(A, mono):
    return sum(e * v.degree for e, v in zip(mono, A.vars))


def former_mono_weight(A, mono):
    return sum(e * v.weight for e, v in zip(mono, A.vars))


def former_mono_mul(A, a, b):
    coeff = A.field.one
    exps = []
    for i, v in enumerate(A.vars):
        e = a[i] + b[i]
        if v.is_odd:
            if e > 1:
                return None
        elif a[i] and b[i]:
            coeff = coeff * _binomial(e, a[i], A.field)
        exps.append(e)
    inv = 0
    for j, v in enumerate(A.vars):
        if v.is_odd and b[j]:
            inv += sum(a[i] for i in range(j + 1, len(A.vars))
                       if A.vars[i].is_odd)
    scalar = -coeff if inv % 2 else coeff
    return (scalar, tuple(exps)) if scalar else None


def outcome(fn, *args):
    """("value", fn's answer), or ("error", the text of its ConstructionError)."""
    try:
        return "value", fn(*args)
    except ConstructionError as exc:
        return "error", str(exc)


def same(found, expected):
    # repr tells the scalar types apart: Fraction(1, 1) is not ModP 1
    return found == expected and repr(found) == repr(expected)


def algebras():
    rng = random.Random(2024)
    for ring in standard_rings():
        for _ in range(5):
            yield random_algebra(rng, ring, max_vars=4, max_degree=4)
    # even letters in small characteristic: exponents pass p, binomials by Lucas
    for p in (2, 3):
        ring = BaseRing(PrimeField(p), ("x",), (1,), [(3,)])
        yield FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Y", 2, 1),
                                   Variable("Z", 1, 1), Variable("V", 2, 2)])


def test_algebra_monomials_match_the_former_forms():
    pairs = evens = 0
    for A in algebras():
        monos = [m for n in range(9) for m in A.monomial_basis(n)]
        for m in monos:
            assert A.mono_degree(m) == former_mono_degree(A, m)
            assert A.mono_weight(m) == former_mono_weight(A, m)
        for a in monos:
            for b in monos:
                assert same(outcome(A.mono_mul, a, b), outcome(former_mono_mul, A, a, b))
                pairs += 1
                evens += any(x and y and not v.is_odd for x, y, v in zip(a, b, A.vars))
    assert pairs > 5000 and evens > 500


def test_ring_monomials_match_the_former_forms():
    checked = 0
    for R in standard_rings() + [BaseRing(PrimeField(3), ("x", "y", "z"), (1, 2, 1),
                                          [(2, 1, 0), (0, 0, 3), (1, 0, 1)])]:
        monos = [m for w in range(7)
                 for m in exponent_vectors(R.degrees, w, ())]
        for a in monos:
            assert R.mono_weight(a) == former_ring_mono_weight(R, a)
            for b in monos:
                assert R.mono_mul(a, b) == former_ring_mono_mul(R, a, b)
                assert mono_divides(a, b) == former_mono_divides(a, b)
                checked += 1
    assert checked > 1000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_a_vanishing_product_with_a_binomial_past_the_limit_keeps_its_answer():
    """The letters are read in order: a binomial past the digit limit before
    an odd square raises, an odd square before it vanishes."""
    big = 300000
    even_first = FreeDGAlgebra(BaseRing(QQ), [Variable("Y", 2, 2), Variable("X", 1, 1)])
    odd_first = FreeDGAlgebra(BaseRing(QQ), [Variable("X", 1, 1), Variable("Y", 2, 2)])
    cases = [(even_first, (big, 1), (big, 1)), (odd_first, (1, big), (1, big))]
    answers = [outcome(A.mono_mul, a, b) for A, a, b in cases]
    assert answers == [outcome(former_mono_mul, A, a, b) for A, a, b in cases]
    assert answers == [("error", "coefficient exceeds the %d-digit limit for integers"
                        % sys.get_int_max_str_digits()), ("value", None)]
