import random
import sys
from math import comb

import pytest

from dglift import (AlgebraElement, BaseRing, ConstructionError, CycleViolation,
                    ForwardReference, FreeDGAlgebra, GradingViolation, PrimeField, QQ,
                    Variable, parse_ring)
from dglift.randomgen import random_algebra, random_algebra_element, standard_rings


@pytest.fixture
def ring():
    return parse_ring("QQ[x:1,y:1]/(x*y)")


@pytest.fixture
def B(ring):
    x, y = ring.gen("x"), ring.gen("y")
    return FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Y", 2, 2)],
                         {"X": {(0, 0): x}, "Y": {(1, 0): y}})


def test_example_algebra_accepted(B):
    assert [v.name for v in B.vars] == ["X", "Y"]
    assert B.diffs[0] == B.from_ring(B.ring.gen("x")).coeffs
    assert B.diffs[1] == (B.gen("X") * B.ring.gen("y")).coeffs


def test_cycle_violation_without_the_relation():
    ring = parse_ring("QQ[x:1,y:1]")
    x, y = ring.gen("x"), ring.gen("y")
    with pytest.raises(CycleViolation):
        FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Y", 2, 2)],
                      {"X": {(0, 0): x}, "Y": {(1, 0): y}})


def test_empty_extension_is_the_ring(ring):
    B = FreeDGAlgebra(ring, [])
    assert B.one().diff() == B.zero()
    assert [B.render_mono(m) for m in B.monomial_basis(0)] == ["1"]
    assert B.monomial_basis(1) == []


def test_forward_reference_rejected(ring):
    with pytest.raises(ForwardReference):
        FreeDGAlgebra(ring, [Variable("X", 2, 1), Variable("Y", 3, 1)],
                      {"X": {(0, 1): ring.one()}})


def test_grading_violation_rejected(ring):
    x = ring.gen("x")
    with pytest.raises(GradingViolation):
        # dX has homological degree 0 but X claims degree 3
        FreeDGAlgebra(ring, [Variable("X", 3, 1)], {"X": {(0,): x}})
    with pytest.raises(GradingViolation):
        # internal degree of dX is 1, the variable claims 2
        FreeDGAlgebra(ring, [Variable("X", 1, 2)], {"X": {(0,): x}})


@pytest.mark.parametrize("call, message", [
    (lambda B: B.divided_power("X", 2), "divided powers only exist for even variables"),
    (lambda B: B.from_ring(parse_ring("QQ[x:1]").gen("x")),
     "coefficient from a different base ring"),
], ids=["divided-power", "from-ring"])
def test_misused_algebra_calls_are_refused(B, call, message):
    with pytest.raises(ConstructionError) as info:
        call(B)
    assert str(info.value) == message


def test_product_examples(B):
    X, Y = B.gen("X"), B.gen("Y")
    assert not X * X
    assert Y * Y == 2 * B.divided_power("Y", 2)
    assert Y * X == X * Y
    assert not (X * Y) * X


def test_divided_power_ladder(B):
    Y = B.gen("Y")
    Y2, Y3 = B.divided_power("Y", 2), B.divided_power("Y", 3)
    assert Y2 * Y == 3 * Y3
    assert Y2 * Y2 == 6 * B.divided_power("Y", 4)


def test_differential_examples(B):
    X, Y = B.gen("X"), B.gen("Y")
    y = B.ring.gen("y")
    assert B.divided_power("Y", 2).diff() == X * Y * y
    assert (X * Y).diff() == Y * B.ring.gen("x")
    assert B.from_ring(B.ring.gen("x")).diff() == B.zero()


def test_basis_examples(B):
    assert [B.render_mono(m) for m in B.monomial_basis(3)] == ["X*Y"]
    assert [B.render_mono(m) for m in B.monomial_basis(0)] == ["1"]
    labelled = [(B.render_mono(m), B.ring.render_mono(r))
                for m, r in B.bidegree_basis(3, 4)]
    assert labelled == [("X*Y", "x"), ("X*Y", "y")]


def _pool(rng):
    algebras = []
    for ring in standard_rings():
        algebras.append(random_algebra(rng, ring))
    return algebras


def test_d_squared_zero_on_random_elements(B):
    rng = random.Random(11)
    pool = _pool(rng) + [B]
    checked = 0
    while checked < 200:
        A = pool[rng.randrange(len(pool))]
        a = random_algebra_element(rng, A, rng.randint(0, 6), rng.randint(0, 6))
        assert a.diff().diff() == A.zero()
        checked += 1


def test_leibniz_rule_on_random_homogeneous_pairs(B):
    rng = random.Random(12)
    pool = _pool(rng) + [B]
    checked = 0
    while checked < 150:
        A = pool[rng.randrange(len(pool))]
        a = random_algebra_element(rng, A, rng.randint(0, 5), rng.randint(0, 5))
        b = random_algebra_element(rng, A, rng.randint(0, 5), rng.randint(0, 5))
        if not a or not b:
            continue
        sign = -1 if a.bidegree()[0] % 2 else 1
        assert (a * b).diff() == a.diff() * b + sign * (a * b.diff())
        checked += 1


def test_graded_commutativity_on_random_pairs(B):
    rng = random.Random(13)
    pool = _pool(rng) + [B]
    checked = 0
    while checked < 150:
        A = pool[rng.randrange(len(pool))]
        a = random_algebra_element(rng, A, rng.randint(0, 5), rng.randint(0, 5))
        b = random_algebra_element(rng, A, rng.randint(0, 5), rng.randint(0, 5))
        if not a or not b:
            continue
        sign = -1 if (a.bidegree()[0] * b.bidegree()[0]) % 2 else 1
        assert a * b == sign * (b * a)
        checked += 1


def test_internal_degree_preserved_and_additive(B):
    rng = random.Random(14)
    pool = _pool(rng) + [B]
    checked = 0
    while checked < 120:
        A = pool[rng.randrange(len(pool))]
        n, w = rng.randint(0, 5), rng.randint(0, 5)
        a = random_algebra_element(rng, A, n, w)
        if not a:
            continue
        assert a.bidegree() == (n, w)
        da = a.diff()
        if da:
            assert da.bidegree() == (n - 1, w)
        b = random_algebra_element(rng, A, rng.randint(0, 4), rng.randint(0, 4))
        if b and a * b:
            nb, wb = b.bidegree()
            assert (a * b).bidegree() == (n + nb, w + wb)
        checked += 1


def test_odd_odd_anticommute():
    ring = BaseRing(QQ)
    A = FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Z", 1, 1)])
    X, Z = A.gen("X"), A.gen("Z")
    assert Z * X == -(X * Z)
    assert not (X * Z) * X


def test_char_p_divided_powers():
    ring = parse_ring("FF(2)")
    A = FreeDGAlgebra(ring, [Variable("Y", 2, 2)])
    Y = A.gen("Y")
    # binomial(2,1) = 2 = 0 mod 2: the square of Y vanishes but Y^(2) persists
    assert not Y * Y
    assert A.divided_power("Y", 2) * Y == A.divided_power("Y", 3)


def reference_mono_mul(A, a, b):
    """The product of two monomials from the definitions: divided-power
    binomials on even letters, odd squares vanish, and the sign of the
    permutation that sorts the odd letters of a followed by those of b."""
    coeff = 1
    for v, x, y in zip(A.vars, a, b):
        if v.is_odd and x + y > 1:
            return None
        if not v.is_odd:
            coeff *= comb(x + y, x)
    word = [i for i, v in enumerate(A.vars) if v.is_odd and a[i]]
    word += [i for i, v in enumerate(A.vars) if v.is_odd and b[i]]
    inversions = sum(1 for s in range(len(word)) for t in range(s + 1, len(word))
                     if word[s] > word[t])
    scalar = A.field.of(-coeff if inversions % 2 else coeff)
    if not scalar:
        return None
    return scalar, tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("char", [0, 2, 3])
def test_memoised_monomial_products_match_the_formula(char):
    ring = BaseRing(PrimeField(char) if char else QQ)
    A = FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Y", 2, 2),
                             Variable("Z", 1, 1), Variable("W", 3, 3),
                             Variable("V", 2, 2)])
    rng = random.Random(11 + char)
    for _ in range(400):
        a = tuple(rng.randint(0, 1 if v.is_odd else 4) for v in A.vars)
        b = tuple(rng.randint(0, 1 if v.is_odd else 4) for v in A.vars)
        expected = reference_mono_mul(A, a, b)
        assert A.mono_mul(a, b) == expected
        assert A.mono_mul(a, b) == expected  # from the memo


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1000000007])
def test_divided_power_binomials_mod_p_match_the_exact_ones(p):
    """Lucas' theorem, over one and several base-p digits, against
    comb(a + b, a) % p; a zero binomial makes the product vanish."""
    A = FreeDGAlgebra(BaseRing(PrimeField(p)), [Variable("Y", 2, 2)])
    for a in range(1, 60):
        for b in (a, 1, 2, 7, 30):
            expected = comb(a + b, a) % p
            assert A.mono_mul((a,), (b,)) \
                == ((A.field.of(expected), (a + b,)) if expected else None)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_divided_power_binomials_past_the_digit_limit_are_construction_errors():
    A = FreeDGAlgebra(BaseRing(QQ), [Variable("Y", 2, 2)])
    bound = 10 ** sys.get_int_max_str_digits()
    # exact at the boundary: the largest comb(2a, a) below 10^limit, and
    # comb(n, 1) = n with and without one digit too many
    lo, hi = 1, 20000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if comb(2 * mid, mid) < bound else (lo, mid)
    assert A.mono_mul((lo,), (lo,)) == (QQ.of(comb(2 * lo, lo)), (2 * lo,))
    assert A.mono_mul((bound - 2,), (1,)) == (QQ.of(bound - 1), (bound - 1,))
    for a, b in ((lo + 1, lo + 1), (bound - 1, 1), (10 ** 4000, 10 ** 4000),
                 (300000, 300000)):
        with pytest.raises(ConstructionError, match="coefficient exceeds the"):
            A.mono_mul((a,), (b,))


def test_equal_algebras_do_not_share_caches():
    from dglift import check_lift, parse_problem
    from dglift.envelope import diagonal_block_keys

    from conftest import golden_text

    def tables(owner, names):
        return {name: vars(owner).get("_memo_" + name) for name in names}

    first = parse_problem(golden_text("nonliftable.dgp"))
    second = parse_problem(golden_text("nonliftable.dgp"))
    A, B = first.algebra, second.algebra
    M, M2 = first.modules["M"], second.modules["M"]
    assert A == B and A is not B
    algebra_tables = ("mono_diff", "mono_mul", "monomial_basis", "bidegree_basis",
                      "diagonal_block_keys", "_diff_times", "mono_print")
    ring_tables = ("mono_mul", "graded_basis", "mono_print")
    before = {name: dict(t or {}) for name, t in tables(B, algebra_tables).items()}
    check_lift(M)
    keys = diagonal_block_keys(A, 3, 4)
    assert keys is diagonal_block_keys(A, 3, 4)
    assert (3, 4) in A._memo_diagonal_block_keys and A._memo_mono_mul
    # every table of A and its ring filled; B's are as they were
    assert all(tables(A, algebra_tables).values())
    assert all(tables(A.ring, ring_tables).values())
    assert {name: dict(t or {}) for name, t in tables(B, algebra_tables).items()} == before
    check_lift(M2)
    for owner, other, names in ((A, B, algebra_tables), (A.ring, B.ring, ring_tables)):
        mine, theirs = tables(owner, names), tables(other, names)
        assert all(mine[name] is not theirs[name] for name in names)


def former_mono_diff(A, mono):
    """d of a monomial as it was expanded before ``mono_diff`` read B's
    monomial products: the Leibniz rule over AlgebraElement products,
    head * dX_i * tail, signed by the factors before i."""
    total = A.zero()
    prefix_parity = 0
    for i, v in enumerate(A.vars):
        e = mono[i]
        if e:
            head = mono[:i] + (0 if v.is_odd else e - 1,) + A.unit_mono[i + 1:]
            tail = A.unit_mono[:i + 1] + mono[i + 1:]
            term = (A.mono_element(head) * AlgebraElement(A, A.diffs[i])
                    * A.mono_element(tail))
            total = total + (-term if prefix_parity else term)
            prefix_parity = (prefix_parity + e * v.degree) % 2
    return total


@pytest.mark.parametrize("field", ["QQ", "FF(2)", "FF(7)"])
def test_monomial_differentials_match_the_element_level_expansion(field):
    """Odd and even letters interleaved, dX with several terms and
    coefficients, over every monomial of homological degree up to 12, so
    divided powers up to Y^(6) and V^(6)."""
    ring = parse_ring(field + "[x:1,y:1]/(x*y, x^2)")
    x, y = ring.gen("x"), ring.gen("y")
    A = FreeDGAlgebra(ring, [Variable("X", 1, 1), Variable("Y", 2, 2),
                             Variable("Z", 1, 1), Variable("V", 2, 2),
                             Variable("W", 3, 3), Variable("U", 4, 4)],
                      {"X": {(0, 0, 0, 0, 0, 0): x},
                       "Y": {(1, 0, 0, 0, 0, 0): y},
                       "Z": {(0, 0, 0, 0, 0, 0): y},
                       "V": {(0, 0, 1, 0, 0, 0): x, (1, 0, 0, 0, 0, 0): 3 * y},
                       "W": {(0, 1, 0, 0, 0, 0): x, (0, 0, 0, 1, 0, 0): 2 * x},
                       "U": {(1, 1, 0, 0, 0, 0): y}})
    checked = nonzero = 0
    for n in range(13):
        for mono in A.monomial_basis(n):
            expected = former_mono_diff(A, mono)
            # the same terms in the same order
            assert list(A.mono_diff(mono).items()) == list(expected.coeffs.items())
            checked += 1
            nonzero += bool(expected)
    assert checked > 200 and nonzero > 150
