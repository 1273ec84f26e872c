import random
from pathlib import Path

import pytest

from dglift import (ConstructionError, EnvelopeElement, delta, diagonal_basis,
                    op_inclusion, parse_problem, pi, rho, sigma)
from dglift.coefficients import ring_mono_key
from dglift.envelope import (DiagonalElement, diagonal_block_keys,
                             diagonal_diff_block, diagonal_label, envelope_basis)
from dglift.randomgen import (random_algebra, random_algebra_element,
                              random_diagonal_element, random_envelope_element,
                              standard_rings)

from conftest import GOLDEN
from invariants import suite_derivation, suite_splitting


def pair(B, m1, m2, coeff=None):
    return EnvelopeElement(B, {(m1, m2): coeff if coeff is not None
                               else B.ring.one()})


def test_twisted_product_examples(example_algebra):
    B = example_algebra
    X, Y = B.gen("X"), B.gen("Y")
    # |b1'| even: no sign, opposite side multiplies in reverse order
    assert op_inclusion(X) * op_inclusion(Y) == op_inclusion(X * Y)
    # rho is an algebra map
    assert rho(X) * rho(Y) == rho(X * Y)
    # odd square on the opposite side dies through the twist
    assert not op_inclusion(X) * op_inclusion(X)


def test_envelope_differential_examples(example_algebra):
    B = example_algebra
    x = B.ring.gen("x")
    XoX = pair(B, (1, 0), (1, 0))
    expected = pair(B, (0, 0), (1, 0), x) - pair(B, (1, 0), (0, 0), x)
    assert XoX.diff() == expected
    assert pair(B, (0, 0), (0, 0)).diff() == EnvelopeElement(B, {})
    XoY = pair(B, (1, 0), (0, 1))
    assert XoY.diff().diff() == EnvelopeElement(B, {})


def test_splitting_map_examples(example_algebra):
    B = example_algebra
    X, Y = B.gen("X"), B.gen("Y")
    assert pi(pair(B, (1, 0), (0, 1))) == X * Y
    assert not sigma(rho(Y * X))
    # X with X*Y: the correction term carries X*X*Y = 0
    s = sigma(pair(B, (1, 0), (1, 1)))
    assert s.to_envelope() == pair(B, (1, 0), (1, 1))


def test_universal_derivation_examples(example_algebra):
    B = example_algebra
    X, Y = B.gen("X"), B.gen("Y")
    y = B.ring.gen("y")
    assert not delta(B.one())
    assert not delta(B.from_ring(y))
    d = delta(X * Y * y)
    assert d.coeffs == {((1, 1), (0, 0)): y}  # sigma((X*Y)^o (x) 1) . y


def test_bimodule_action_examples(example_algebra):
    B = example_algebra
    X, Y = B.gen("X"), B.gen("Y")
    assert pair(B, (1, 0), (0, 1)) * X == pair(B, (1, 0), (1, 1))
    assert not X * pair(B, (1, 0), (0, 1))
    # the left action preserves the diagonal ideal
    j = sigma(pair(B, (1, 0), (1, 1)))
    assert not pi((Y * j.to_envelope()))


def test_left_action_matches_twisted_product(example_algebra):
    """b . u = (-1)^{|b||u|} u (b^o (x) 1) for homogeneous b and u."""
    B = example_algebra
    rng = random.Random(21)
    checked = 0
    while checked < 60:
        b = random_algebra_element(rng, B, rng.randint(0, 4), rng.randint(0, 4))
        u = random_envelope_element(rng, B, rng.randint(0, 5), rng.randint(0, 5))
        if not b or not u:
            continue
        sign = -1 if (b.bidegree()[0] * u.bidegree()[0]) % 2 else 1
        assert b * u == sign * (u * op_inclusion(b))
        checked += 1


def test_diagonal_basis_dimension_four_four(example_algebra):
    B = example_algebra
    keys = diagonal_block_keys(B, 4, 4)
    labelled = [(B.render_mono(m1), B.render_mono(m2), B.ring.render_mono(r))
                for m1, m2, r in keys]
    assert labelled == [("X", "X*Y", "1"), ("Y", "Y", "1"),
                        ("X*Y", "X", "1"), ("Y^(2)", "1", "1")]


def test_diagonal_basis_dimension_three_four(example_algebra):
    B = example_algebra
    keys = diagonal_block_keys(B, 3, 4)
    labelled = [diagonal_label(B, k) for k in keys]
    assert labelled == ["σ(X^o⊗Y)·x", "σ(X^o⊗Y)·y", "σ(Y^o⊗X)·x",
                        "σ(Y^o⊗X)·y", "σ((X*Y)^o⊗1)·x", "σ((X*Y)^o⊗1)·y"]


def test_diagonal_vanishes_in_degree_zero(example_algebra):
    for w in range(0, 5):
        assert diagonal_basis(example_algebra, 0, w) == []


def test_diagonal_basis_lies_in_the_kernel_of_pi(example_algebra):
    B = example_algebra
    for n in range(0, 6):
        for w in range(0, 6):
            for el in diagonal_basis(B, n, w):
                assert not pi(el.to_envelope())


def test_sigma_coordinates_refuse_a_unit_left_factor(example_algebra):
    B = example_algebra
    with pytest.raises(ConstructionError) as info:
        DiagonalElement(B, {(B.unit_mono, next(iter(B.gen("X").coeffs))): B.ring.one()})
    assert str(info.value) == "sigma coordinates require m1 != 1"


def test_differential_block_of_the_example(example_algebra):
    """The four boundaries out of bidegree (4,4), in sigma coordinates."""
    B = example_algebra
    block = diagonal_diff_block(B, 4, 4)
    assert block.shape == (6, 4)
    f = B.field
    v = lambda i: [f.one if k == i else f.zero for k in range(6)]
    neg = lambda vec: [-s for s in vec]
    add = lambda a, b: [x + y for x, y in zip(a, b)]
    columns = [[block.rows[i][j] for i in range(6)] for j in range(4)]
    assert columns[0] == neg(v(0))                 # -v1
    assert columns[1] == add(v(1), v(3))           # v2 + v4
    assert columns[2] == add(v(2), neg(v(4)))      # v3 - v5
    assert columns[3] == v(5)                      # v6


def test_sigma_coordinate_operations_match_raw_route(example_algebra):
    """diff and both actions computed in sigma coordinates agree with
    converting to the envelope, operating there, and retracting."""
    B = example_algebra
    rng = random.Random(22)
    checked = 0
    while checked < 80:
        j = random_diagonal_element(rng, B, rng.randint(1, 6), rng.randint(0, 6))
        b = random_algebra_element(rng, B, rng.randint(0, 3), rng.randint(0, 3))
        if not j:
            continue
        assert j.diff() == sigma(j.to_envelope().diff())
        if b:
            assert j * b == sigma(j.to_envelope() * b)
            assert b * j == sigma(b * j.to_envelope())
        checked += 1


def test_splitting_identity_suite():
    assert suite_splitting(seed=101, trials=60) == 60


def test_derivation_suite():
    assert suite_derivation(seed=102, trials=60) == 60


def test_envelope_product_associative():
    rng = random.Random(23)
    rings = standard_rings()
    checked = 0
    while checked < 60:
        A = random_algebra(rng, rings[rng.randrange(len(rings))])
        u = random_envelope_element(rng, A, rng.randint(0, 4), rng.randint(0, 4))
        v = random_envelope_element(rng, A, rng.randint(0, 4), rng.randint(0, 4))
        w = random_envelope_element(rng, A, rng.randint(0, 4), rng.randint(0, 4))
        assert (u * v) * w == u * (v * w)
        checked += 1


def test_envelope_diff_is_a_derivation_for_the_twisted_product(example_algebra):
    B = example_algebra
    rng = random.Random(24)
    checked = 0
    while checked < 60:
        u = random_envelope_element(rng, B, rng.randint(0, 4), rng.randint(0, 4))
        v = random_envelope_element(rng, B, rng.randint(0, 4), rng.randint(0, 4))
        if not u or not v:
            continue
        sign = -1 if u.bidegree()[0] % 2 else 1
        assert (u * v).diff() == u.diff() * v + sign * (u * v.diff())
        checked += 1


def test_rendering_of_pairs(example_algebra):
    B = example_algebra
    y = B.ring.gen("y")
    d = delta(B.gen("X") * B.gen("Y") * y)
    assert str(d) == "-1^o⊗X*Y · y + (X*Y)^o⊗1 · y"


# The nested-loop enumerations the bases were built by before they were
# assembled from B's cached bidegree pieces: the reference for those pieces.

def former_monomial_basis(B, n):
    return [] if n < 0 else B.monomial_basis(n)


def former_graded_basis(R, w):
    return [] if w < 0 else R.graded_basis(w)


def former_envelope_basis(B, n, w):
    out = []
    for d1 in range(n + 1):
        for m1 in former_monomial_basis(B, d1):
            w1 = B.mono_weight(m1)
            for m2 in former_monomial_basis(B, n - d1):
                rest = w - w1 - B.mono_weight(m2)
                for rm in former_graded_basis(B.ring, rest):
                    out.append((m1, m2, rm))
    return out


def former_diagonal_block_keys(B, n, w):
    return [k for k in former_envelope_basis(B, n, w) if k[0] != B.unit_mono]


def former_basis_of_bidegree(N, n, w):
    B = N.algebra
    out = []
    for i, lab in enumerate(N.labels):
        for mono in former_monomial_basis(B, n - N.degrees[i]):
            rest = w - N.weights[i] - B.mono_weight(mono)
            for rm in former_graded_basis(B.ring, rest):
                out.append((lab, mono, rm))
    return out


def former_tensor_keys(N, n, w):
    out = []
    for i, lab in enumerate(N.labels):
        for key in former_diagonal_block_keys(N.algebra, n - N.degrees[i],
                                              w - N.weights[i]):
            out.append((lab,) + key)
    return out


def test_diagonal_block_keys_are_cached_per_algebra(example_algebra):
    B = example_algebra
    for n in range(5):
        for w in range(6):
            keys = diagonal_block_keys(B, n, w)
            assert keys is diagonal_block_keys(B, n, w)
            assert keys == former_diagonal_block_keys(B, n, w)


def test_bases_equal_the_former_nested_loop_enumerations():
    """B^e, J, N and N (x) J bases, built from B's cached pieces, against
    the former loops over the golden problems, koszul-fp/k00 and a
    frontend sample, for n, w in 0..5 and at each label's bidegree."""
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    paths = ([GOLDEN / name for name in ("liftable.dgp", "nonliftable.dgp",
                                         "combined.dgp")]
             + [corpus / "koszul-fp" / "k00.dgp"]
             + [corpus / "frontend" / ("f%03d.dgp" % k) for k in range(0, 400, 40)])
    problems = [parse_problem(path.read_text(encoding="utf-8")) for path in paths]
    nonempty = 0
    for problem in problems:
        B = problem.algebra
        for n in range(6):
            for w in range(6):
                assert envelope_basis(B, n, w) == former_envelope_basis(B, n, w)
                keys = diagonal_block_keys(B, n, w)
                assert keys == former_diagonal_block_keys(B, n, w)
                nonempty += bool(keys)
        for N in problem.modules.values():
            bidegrees = [(n, w) for n in range(6) for w in range(6)]
            bidegrees += [(d - k, wt) for d, wt in zip(N.degrees, N.weights)
                          for k in (0, 1)]
            for n, w in bidegrees:
                assert N.basis_of_bidegree(n, w) == former_basis_of_bidegree(N, n, w)
                keys = N.tensor_keys(n, w)
                assert keys == former_tensor_keys(N, n, w)
                nonempty += bool(keys)
    assert len(problems) >= 10 and nonempty > 250


def test_envelope_basis_is_built_in_sorted_order():
    """The basis is returned as built, so the loops must already produce
    the (mono_key(m1), mono_key(m2), ring_mono_key(rm)) order."""
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    paths = ([GOLDEN / name for name in ("liftable.dgp", "nonliftable.dgp",
                                         "combined.dgp")]
             + [corpus / "koszul-fp" / "k00.dgp", corpus / "koszul-qq" / "k07.dgp"]
             + [corpus / "frontend" / ("f%03d.dgp" % k) for k in range(0, 400, 25)])
    algebras = [parse_problem(path.read_text(encoding="utf-8")).algebra for path in paths]
    blocks = 0
    for B in algebras:
        for n in range(7):
            for w in range(9):
                basis = envelope_basis(B, n, w)
                assert basis == sorted(basis, key=lambda t: (
                    B.mono_key(t[0]), B.mono_key(t[1]), ring_mono_key(t[2])))
                blocks += bool(basis)
    assert len(algebras) >= 15 and blocks > 500
