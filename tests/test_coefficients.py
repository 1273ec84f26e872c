import itertools
import random
import time

import pytest

from dglift import (BaseRing, ConstructionError, DGLiftError, PrimeField, QQ,
                    parse_ring)
from dglift.coefficients import (PRIME_LIMIT, ModP, is_prime,
                                 principal_intersection_dim)


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


def test_construction_errors():
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x", "x"), (1, 1), [])
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x",), (0,), [])
    with pytest.raises(ConstructionError):
        BaseRing(QQ, ("x",), (1,), [(0,)])  # the empty monomial is not allowed
    with pytest.raises(ConstructionError):
        PrimeField(6)


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
