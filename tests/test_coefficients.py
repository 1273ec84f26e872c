import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from dglift import (BaseRing, ConstructionError, DGLiftError, PrimeField, QQ,
                    parse_ring)
from dglift.coefficients import (PRIME_LIMIT, TOO_LONG, ModP, RingElement,
                                 element_text, exponent_vectors, is_prime,
                                 principal_intersection_dim, ring_mono_key,
                                 too_long)
from dglift.envelope import DiagonalElement, EnvelopeElement
from dglift.free_dga import AlgebraElement
from dglift.randomgen import (random_algebra, random_algebra_element,
                              random_diagonal_element, random_envelope_element,
                              random_scalar, standard_rings)

from conftest import shipped_algebras


@pytest.fixture
def qxy_mod_xy():
    return BaseRing(QQ, ("x", "y"), (1, 1), [(1, 1)])


def brute_force_basis(ring, w):
    """Independent enumeration: all exponent tuples of weight w that no
    relation divides, by exhaustive product over per-generator ranges."""
    if ring.is_field:
        return [()] if w == 0 else []
    ranges = [range(w // d + 1) for d in ring.degrees]
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exps, ring.degrees)) != w:
            continue
        if all(any(r > e for r, e in zip(rel, exps)) for rel in ring.relations):
            out.append(exps)
    return out


def test_quotient_ring_degree_two_basis(qxy_mod_xy):
    basis = qxy_mod_xy.graded_basis(2)
    assert [qxy_mod_xy.render_mono(m) for m in basis] == ["x^2", "y^2"]


def test_field_ring_graded_pieces():
    R = parse_ring("QQ")
    assert R.is_field
    assert [R.render_mono(m) for m in R.graded_basis(0)] == ["1"]
    for w in range(1, 5):
        assert R.graded_basis(w) == []


def test_ideal_intersection_vanishes_up_to_degree_six(qxy_mod_xy):
    x, y = qxy_mod_xy.gen("x"), qxy_mod_xy.gen("y")
    for w in range(1, 7):
        assert principal_intersection_dim(qxy_mod_xy, x, y, w) == 0


def test_intersection_detects_overlap():
    # in QQ[x,y] with no relations, x*y lies in both ideals from degree 2 on
    R = BaseRing(QQ, ("x", "y"), (1, 1), [])
    x, y = R.gen("x"), R.gen("y")
    assert principal_intersection_dim(R, x, y, 2) == 1


def test_arithmetic_examples(qxy_mod_xy):
    x, y = qxy_mod_xy.gen("x"), qxy_mod_xy.gen("y")
    assert not x * y
    assert x * x == qxy_mod_xy.element({(2, 0): QQ.one})
    assert (x + y) * (x + y) == x * x + y * y


def test_graded_basis_examples(qxy_mod_xy):
    assert [qxy_mod_xy.render_mono(m) for m in qxy_mod_xy.graded_basis(3)] \
        == ["x^3", "y^3"]
    assert [qxy_mod_xy.render_mono(m) for m in qxy_mod_xy.graded_basis(0)] == ["1"]


def test_fields_are_equal_exactly_when_their_characteristics_are():
    """QQ and each PrimeField(p) are one field class: equal and hashed
    alike by characteristic, named as the problem language writes them,
    with Fraction or ModP scalars and the elimination's raw scalars."""
    F7 = PrimeField(7)
    assert F7 == PrimeField(7) and hash(F7) == hash(PrimeField(7))
    assert len({QQ, PrimeField(2), F7, PrimeField(7)}) == 3
    assert QQ != PrimeField(2) != F7 != QQ
    assert (repr(QQ), repr(F7)) == ("QQ", "FF(7)")
    assert type(QQ.one) is Fraction and type(F7.one) is ModP
    assert QQ.raw(QQ.of(3)) == 3 and F7.raw(F7.of(-1)) == 6


def test_construction_errors():
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x", "x"), (1, 1), [])
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x",), (0,), [])
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x",), (1,), [(0,)])  # the empty monomial is not allowed
    with pytest.raises(ConstructionError):
        PrimeField(6)


@pytest.mark.parametrize("call, error, message", [
    (lambda: BaseRing(QQ, ("x", "y"), (1,), []), ConstructionError,
     "need one internal degree per generator"),
    (lambda: BaseRing(QQ, ("x",), (1,), []).gen("y"), KeyError,
     "no ring generator named 'y'"),
], ids=["degrees", "gen"])
def test_malformed_ring_calls_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == message


def test_relation_minimalisation():
    # x^2*y is divisible by x*y and gets dropped from the generating set
    R = BaseRing(QQ, ("x", "y"), (1, 1), [(1, 1), (2, 1)])
    assert R.relations == ((1, 1),)


def _random_element(rng, ring, terms=4):
    coeffs = {}
    for _ in range(terms):
        w = rng.randint(0, 5)
        basis = ring.graded_basis(w)
        if not basis:
            continue
        m = basis[rng.randrange(len(basis))]
        c = ring.field.of(rng.randint(-3, 3))
        if c:
            coeffs[m] = coeffs.get(m, ring.field.zero) + c
    return ring.element(coeffs)


@pytest.mark.parametrize("ring_text", [
    "QQ[x:1,y:1]/(x*y)",
    "QQ[x:1,y:1]/(x^2, x*y)",
    "FF(5)[x:1,y:2]/(x^3)",
])
def test_normal_form_idempotent_and_ring_axioms(ring_text):
    ring = parse_ring(ring_text)
    rng = random.Random(7)
    for _ in range(60):
        a = _random_element(rng, ring)
        b = _random_element(rng, ring)
        c = _random_element(rng, ring)
        # re-normalising the stored coefficients changes nothing
        assert ring.element(dict(a.coeffs)) == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring_text", [
    "QQ[x:1,y:1]/(x*y)",
    "QQ[x:2,y:3]/(x^2*y)",
    "FF(3)[x:1,y:1]/(x^2, y^2)",
])
def test_graded_dimension_matches_brute_force(ring_text):
    ring = parse_ring(ring_text)
    for w in range(0, 9):
        basis = ring.graded_basis(w)
        brute = brute_force_basis(ring, w)
        assert len(basis) == len(brute)
        assert set(basis) == set(brute)


def test_prime_field_arithmetic():
    F = PrimeField(5)
    a, b = F.of(3), F.of(4)
    assert a + b == F.of(2)
    assert a * b == F.of(2)
    assert a / b == a * F.of(4)  # 4^{-1} = 4 mod 5
    assert -a == F.of(2)
    assert not F.of(10)
    with pytest.raises(ValueError):
        ModP(1, 5) + ModP(1, 7)


def test_prime_field_rejects_foreign_operands():
    # the reflected operators return NotImplemented, so Python raises TypeError
    for operation in (lambda: Fraction(1, 2) - ModP(1, 5),
                      lambda: 1.5 - ModP(1, 5),
                      lambda: ModP(1, 5) / Fraction(1, 2)):
        with pytest.raises(TypeError):
            operation()
    assert 3 - ModP(1, 5) == ModP(2, 5)


def random_ring_element(rng, ring, w):
    return RingElement.from_terms(ring, [((m,), random_scalar(rng, ring.field))
                                         for m in ring.graded_basis(w)])


RANDOM_ELEMENT = {
    RingElement: lambda rng, B, n, w: random_ring_element(rng, B.ring, w),
    AlgebraElement: random_algebra_element,
    EnvelopeElement: random_envelope_element,
    DiagonalElement: random_diagonal_element,
}


@pytest.mark.parametrize("cls", list(RANDOM_ELEMENT), ids=lambda c: c.__name__)
def test_scalars_multiply_by_the_one_scalar_rule(cls):
    """From either side, an int, a field scalar (Fraction or ModP) and, for
    the classes above R, a ring element multiply as ``scale`` by it; a
    float, a str or None is a TypeError."""
    rng = random.Random(44)
    checked = 0
    for ring in standard_rings():
        field = ring.field
        scalars = [(k, field.of(k)) for k in (0, 1, -1, 3, 7)]
        scalars.append((Fraction(-2, 3),) * 2 if not field.char
                       else (ModP(3, field.char),) * 2)
        if cls is not RingElement:
            scalars += [(r, r) for r in (ring.zero(), ring.one(),
                                         random_ring_element(rng, ring, 1),
                                         random_ring_element(rng, ring, 2))]
        for B, n, w in itertools.product([random_algebra(rng, ring) for _ in range(3)],
                                         range(4), range(6)):
            el = RANDOM_ELEMENT[cls](rng, B, n, w)
            if not el:
                continue
            assert type(el) is cls
            for scalar, as_scale in scalars:
                assert el * scalar == scalar * el == el.scale(as_scale)
            for bad in (1.5, "2", None):
                with pytest.raises(TypeError):
                    el * bad
                with pytest.raises(TypeError):
                    bad * el
            checked += 1
    assert checked > 40


def brute_force_exponents(degrees, total, caps):
    """Every exponent vector of the given total, by exhaustive product over
    per-position ranges, in itertools.product's (lexicographic) order."""
    ranges = [range(max(total, 0) // d + 1) for d in degrees]
    return [exps for exps in itertools.product(*ranges)
            if sum(e * d for e, d in zip(exps, degrees)) == total
            and all(cap is None or e <= cap for e, cap in zip(exps, caps))]


def test_exponent_vectors_match_brute_force():
    cases = [(ring.degrees, [None] * len(ring.degrees)) for ring in standard_rings()]
    cases += [([v.degree for v in B.vars], [1 if v.is_odd else None for v in B.vars])
              for B in shipped_algebras()]
    rng = random.Random(8)
    for _ in range(40):
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        cases.append((degrees, [rng.choice([None, 0, 1, 2]) for _ in degrees]))
    for degrees, caps in cases:
        # a cap c is the relation x_i^(c+1)
        relations = [tuple(cap + 1 if j == i else 0 for j in range(len(degrees)))
                     for i, cap in enumerate(caps) if cap is not None]
        for total in range(-3, 11):
            assert exponent_vectors(degrees, total, relations) \
                == brute_force_exponents(degrees, total, caps), (degrees, caps, total)


def random_relations_ring(rng):
    """A ring on 3 or 4 generators of degree 1 to 3 whose relations mix pure
    powers and products of two or more generators."""
    m = rng.randint(3, 4)
    relations = [tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(m))
                 for _ in range(rng.randint(1, 5))]
    i, power = rng.randrange(m), rng.randint(2, 4)
    relations.append(tuple(power if j == i else 0 for j in range(m)))
    return BaseRing(rng.choice([QQ, PrimeField(3)]), "xyzw"[:m],
                    [rng.randint(1, 3) for _ in range(m)], [r for r in relations if any(r)])


def test_bases_are_the_filtered_sorted_enumerations():
    rng = random.Random(24)
    for ring in standard_rings() + [random_relations_ring(rng) for _ in range(30)]:
        for w in range(-2, 9):
            assert ring.graded_basis(w) == sorted(brute_force_basis(ring, w),
                                                  key=ring_mono_key)
    for B in shipped_algebras():
        degrees = [v.degree for v in B.vars]
        for n in range(-2, 9):
            # odd letters square to zero: exponent at most 1
            brute = [m for m in brute_force_exponents(degrees, n, [None] * len(degrees))
                     if all(e <= 1 for e, v in zip(m, B.vars) if v.is_odd)]
            assert B.monomial_basis(n) == sorted(brute, key=B.mono_key)


def test_primality_matches_trial_division():
    for n in range(3000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1)))
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5, 7,
    # and the least one to every prime base up to 37 (41 exposes it)
    for n in (561, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)


def test_large_characteristics_end_quickly():
    start = time.perf_counter()
    assert PrimeField(1000000000000000003).one + 1 == 2
    for p in (10 ** 18 + 1, PRIME_LIMIT, 10 ** 400):
        with pytest.raises(DGLiftError):
            PrimeField(p)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("ring_text", [
    "QQ[x:1,y:1]/(x*y)",
    "QQ[x:1,y:1,z:2]/(x^2, y^3*z)",
    "FF(3)[x:1]/(x^4)",
])
def test_memoised_monomial_products_match_the_formulas(ring_text):
    ring = parse_ring(ring_text)
    rng = random.Random(9)
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in ring.gens)
        b = tuple(rng.randint(0, 4) for _ in ring.gens)
        prod = tuple(x + y for x, y in zip(a, b))
        # reduced exactly when no relation divides it; asked twice so the
        # second answer comes from the memo
        for exps in (a, prod, a, prod):
            assert ring.mono_reduced(exps) == all(
                any(r > e for r, e in zip(rel, exps)) for rel in ring.relations)
        expected = prod if ring.mono_reduced(prod) else None
        assert ring.mono_mul(a, b) == expected
        assert ring.mono_mul(a, b) == expected


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_too_long_is_exact_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for n in (0, 1, -7, 10 ** limit - 1, -(10 ** limit - 1), 2 ** (3 * limit)):
        assert not too_long(n)
    for n in (10 ** limit, -(10 ** limit), 10 ** (2 * limit)):
        assert too_long(n)
    sys.set_int_max_str_digits(0)  # no limit: nothing is too long
    try:
        assert not too_long(10 ** (2 * limit))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_element_text_names_a_coefficient_past_the_digit_limit(qxy_mod_xy):
    limit = sys.get_int_max_str_digits()
    x = qxy_mod_xy.gen("x")
    assert element_text(x.scale(QQ.of(-3))) == ("-3*x", True)
    huge = x.scale(Fraction(1, 10 ** limit))
    assert element_text(huge) == (TOO_LONG % limit, False)
