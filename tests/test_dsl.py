import sys
import time
from pathlib import Path

import pytest

from dglift import (CycleViolation, DegreeMismatch, DGLiftError,
                    DifferentialSquareNonzero, GradingViolation, ParseError,
                    UndeclaredName, parse_algebra_element, parse_problem,
                    parse_ring, print_problem)
from dglift.dsl import ProblemDescription, default_module_weights

from conftest import entry

LIFTABLE = """ring R = QQ[x:1,y:1]/(x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
module N over B = <e:0, ep:4 | de = 0, dep = e*X*Y*y>
"""

NONLIFTABLE = """ring R = QQ[x:1,y:1]/(x^2, x*y)
algebra B = R<X:1, Y:2 | dX = x, dY = X*y>
module M over B = <u:0, up:4 | du = 0, dup = u*X*Y*x>
"""


def test_parse_liftable_example():
    p = parse_problem(LIFTABLE)
    assert p.ring_name == "R" and p.algebra_name == "B"
    N = p.modules["N"]
    assert N.degrees == (0, 4) and N.weights == (0, 4)
    B = p.algebra
    assert entry(N, "e", "ep") == B.gen("X") * B.gen("Y") * B.ring.gen("y")


def test_parse_nonliftable_example():
    p = parse_problem(NONLIFTABLE)
    M = p.modules["M"]
    assert entry(M, "u", "up").bidegree() == (3, 4)


def test_comments_and_blank_lines():
    text = "# heading\n\n" + LIFTABLE.replace("ring", "  ring", 1) \
        + "# trailing comment\n"
    assert parse_problem(text) == parse_problem(LIFTABLE)


def test_undeclared_name_carries_the_line():
    with pytest.raises(UndeclaredName) as info:
        parse_problem("ring R = QQ\nalgebra B = R<X:1, Z:3 | dX = 0, dZ = W>\n")
    assert info.value.line == 2


def test_construction_errors_carry_the_line():
    bad = "ring R = QQ[x:1,y:1]\nalgebra B = R<X:1, Y:2 | dX = x, dY = X*y>\n"
    with pytest.raises(CycleViolation) as info:
        parse_problem(bad)
    assert info.value.line == 2
    with pytest.raises(DifferentialSquareNonzero) as info:
        parse_problem(LIFTABLE + "module P over B = <a:0, b:2 | db = a*X>\n")
    assert info.value.line == 4


def test_round_trip_is_identity():
    for text in (LIFTABLE, NONLIFTABLE):
        p = parse_problem(text)
        printed = print_problem(p)
        assert parse_problem(printed) == p
        assert print_problem(parse_problem(printed)) == printed


def test_problem_description_is_a_record_compared_field_by_field():
    p = parse_problem(LIFTABLE)
    first = ProblemDescription("R", p.ring, "B", p.algebra)
    second = ProblemDescription("R", p.ring, "B", p.algebra)
    assert first.modules == {} and second.modules == {}
    assert first.modules is not second.modules  # a new dict per instance
    first.modules["N"] = p.modules["N"]
    assert second.modules == {}
    assert first != second and not first == second
    assert ProblemDescription("R", p.ring, "B", p.algebra, dict(p.modules)) == p
    assert ProblemDescription(ring_name="R", ring=p.ring, algebra_name="B",
                              algebra=p.algebra, modules=p.modules) == p
    assert ProblemDescription("S", p.ring, "B", p.algebra, p.modules) != p
    assert p != parse_problem(NONLIFTABLE)
    assert p != (p.ring_name, p.ring, p.algebra_name, p.algebra, p.modules)


def test_round_trip_with_annotations_and_scalars():
    text = """ring R = FF(5)[x:1,y:2]/(x^3)
algebra B = R<X:1:2 | dX = 0>
module T over B = <a:0:2, b:2 | da = 0, db = 2*a*X>
module S over B = <c:1 | dc = 0>
"""
    p = parse_problem(text)
    assert [v.weight for v in p.algebra.vars] == [2]
    assert p.modules["T"].weights == (2, 4)
    printed = print_problem(p)
    assert parse_problem(printed) == p


def test_rational_scalars_round_trip():
    text = LIFTABLE + "module Q over B = <a:0, b:4 | da = 0, db = 1/2*a*X*Y*y>\n"
    p = parse_problem(text)
    printed = print_problem(p)
    assert "1/2*a*X*Y*y" in printed
    assert parse_problem(printed) == p


def test_weight_annotation_conflict_rejected():
    """A declared weight that the differential contradicts is the
    constructor's error, with the line of its declaration."""
    with pytest.raises(GradingViolation) as caught:
        parse_problem("ring R = QQ[x:1,y:1]/(x*y)\n"
                      "algebra B = R<X:1:2 | dX = x>\n")
    assert str(caught.value) == "line 2: dX has internal degree 1, expected 2"
    with pytest.raises(DegreeMismatch) as caught:
        parse_problem(LIFTABLE.replace("ep:4", "ep:4:7"))
    assert str(caught.value) \
        == "line 3: entry for (e, ep) has internal degree 4, expected 7"


def test_default_weights_inference(module_n):
    assert default_module_weights(module_n) == [0, 4]


def _default_weights_from_bidegrees(module):
    """The former ``default_module_weights``: each entry's bidegree again."""
    weights = [None] * module.rank
    for i, column in enumerate(module.columns):
        forced = None
        for mu, entry in column:
            forced = weights[mu] + entry.bidegree()[1]
        weights[i] = forced if forced is not None else 0
    return weights


def test_default_weights_match_the_bidegree_inference_on_the_corpus():
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    modules = 0
    for path in sorted(corpus.glob("*/*.dgp")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        for module in problem.modules.values():
            assert default_module_weights(module) \
                == _default_weights_from_bidegrees(module)
            modules += 1
    assert modules > 1000


def test_single_declaration_constraints():
    with pytest.raises(ParseError):
        parse_problem(LIFTABLE + "ring S = QQ\n")
    with pytest.raises(ParseError):
        parse_problem(LIFTABLE + "algebra C = R<Z:1 | dZ = 0>\n")
    with pytest.raises(ParseError):
        parse_problem("algebra B = R<X:1 | dX = 0>\n")
    with pytest.raises(UndeclaredName):
        parse_problem("ring R = QQ\nalgebra B = S<X:1 | dX = 0>\n")
    with pytest.raises(UndeclaredName):
        parse_problem(LIFTABLE + "module P over C = <a:0 | da = 0>\n")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_problem(LIFTABLE + "module N over B = <a:0 | da = 0>\n")


def test_positioned_syntax_errors():
    with pytest.raises(ParseError) as info:
        parse_problem("ring R = QQ[\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_problem("ring R = QQ\nalgebra B = R<X:1 | dX = 0> trailing\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_problem("ring R = QQ\nwhatever Z = 1\n")


def test_ring_sub_grammar():
    assert parse_ring("QQ").is_field
    assert parse_ring("FF(7)").field.char == 7
    R = parse_ring("QQ[x:1,y:1]/(x*y, x^2)")
    assert R.relations == ((2, 0), (1, 1))
    with pytest.raises(ParseError):
        parse_ring("ZZ")
    with pytest.raises(ParseError):
        parse_ring("QQ[x:1]/(x + 1)")
    with pytest.raises(ParseError):
        parse_ring("FF(4)")


def test_algebra_element_expressions():
    p = parse_problem(LIFTABLE)
    B = p.algebra
    X, Y = B.gen("X"), B.gen("Y")
    y = B.ring.gen("y")
    assert parse_algebra_element(p, "X*Y*y + 2*Y^(2)") \
        == X * Y * y + 2 * B.divided_power("Y", 2)
    assert parse_algebra_element(p, "Y^2") == 2 * B.divided_power("Y", 2)
    assert not parse_algebra_element(p, "X^2")
    assert parse_algebra_element(p, "3 - 3") == B.zero()
    with pytest.raises(UndeclaredName):
        parse_algebra_element(p, "X*Q")
    with pytest.raises(ParseError):
        parse_algebra_element(p, "X*")


def test_label_must_lead_its_term():
    with pytest.raises(ParseError):
        parse_problem(LIFTABLE.replace("dep = e*X*Y*y", "dep = X*e*Y*y"))


def test_divided_power_of_odd_variable_rejected():
    p = parse_problem(LIFTABLE)
    with pytest.raises(ParseError):
        parse_algebra_element(p, "X^(2)")


def test_round_trip_on_random_problems():
    """print/parse is the identity across randomly generated problems,
    including prime-field scalars, fractions, and weight annotations."""
    import random

    from dglift.dsl import ProblemDescription
    from dglift.randomgen import random_algebra, random_module, standard_rings

    rng = random.Random(61)
    rings = standard_rings()
    for trial in range(40):
        ring = rings[rng.randrange(len(rings))]
        B = random_algebra(rng, ring)
        modules = {"M%d" % k: random_module(rng, B, max_rank=3)
                   for k in range(rng.randint(0, 2))}
        problem = ProblemDescription("R", ring, "B", B, modules)
        printed = print_problem(problem)
        reparsed = parse_problem(printed)
        assert reparsed == problem, printed
        assert print_problem(reparsed) == printed


def test_large_exponents_end_quickly():
    problem = ("ring R = QQ[x:1]/(x^2)\nalgebra B = R<X:1 | dX = x>\n"
               "module N over B = <e:0, f:1 | df = e*%s>\n")
    start = time.perf_counter()
    for power in ("x^200000", "X^200000"):
        try:
            parse_problem(problem % power)
        except DGLiftError:
            pass
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("ring_text", ["QQ[x:1,y:2]", "FF(3)[x:1,y:2]/(x^5)"])
def test_powers_equal_repeated_products(ring_text):
    problem = parse_problem("ring R = %s\nalgebra B = R<X:1, Y:2>\n" % ring_text)
    B = problem.algebra
    x, Y = B.from_ring(B.ring.gen("x")), B.gen("Y")
    for n in range(10):
        for name, base in (("x", x), ("Y", Y)):
            product = B.one()
            for _ in range(n):
                product = product * base
            if n or name == "Y":
                assert parse_algebra_element(problem, "%s^%d" % (name, n)) == product
    with pytest.raises(ParseError, match="zero exponent"):
        parse_algebra_element(problem, "x^0")


def test_divided_power_coefficients_are_bounded_before_they_are_built():
    from math import factorial

    f7 = parse_problem("ring R = FF(7)\nalgebra B = R<Y:2>\n")
    start = time.perf_counter()
    assert not parse_algebra_element(f7, "Y^200000")
    assert time.perf_counter() - start < 0.2
    assert parse_algebra_element(f7, "Y^6") == 720 * f7.algebra.divided_power("Y", 6)
    qq = parse_problem("ring R = QQ\nalgebra B = R<Y:2>\n")
    assert parse_algebra_element(qq, "Y^1000") \
        == factorial(1000) * qq.algebra.divided_power("Y", 1000)


def test_divided_power_coefficients_below_a_large_prime_are_reduced_as_built():
    from math import factorial

    p = 1000000007
    problem = parse_problem("ring R = FF(%d)\nalgebra B = R<Y:2>\n" % p)
    B = problem.algebra
    start = time.perf_counter()
    value = parse_algebra_element(problem, "Y^200000")
    assert time.perf_counter() - start < 0.5
    assert value  # n < p, so n! is a unit mod p
    for n in (0, 1, 2, 3, 12, 13, 50, 200):
        assert parse_algebra_element(problem, "Y^%d" % n) \
            == (factorial(n) % p) * B.divided_power("Y", n)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_divided_power_factorials_past_the_digit_limit_are_parse_errors():
    qq = parse_problem("ring R = QQ\nalgebra B = R<Y:2>\n")
    start = time.perf_counter()
    with pytest.raises(ParseError, match="coefficient exceeds the"):
        parse_algebra_element(qq, "Y^200000")
    assert time.perf_counter() - start < 0.2
    # exact at the boundary: the n! with the most digits allowed parses
    n, f, bound = 1, 1, 10 ** sys.get_int_max_str_digits()
    while f * (n + 1) < bound:
        n += 1
        f *= n
    assert parse_algebra_element(qq, "Y^%d" % n) \
        == f * qq.algebra.divided_power("Y", n)
    for text in ("Y^%d", "Y^%d - Y^%d", "0*Y^%d"):
        with pytest.raises(ParseError, match="coefficient exceeds the"):
            parse_algebra_element(qq, text.replace("%d", str(n + 1)))


def test_divided_power_products_are_bounded_before_they_are_built():
    """Y^(300000) * Y^(300000): the binomial over F_p by Lucas' theorem, and
    over QQ a parse error past the digit limit without building it."""
    start = time.perf_counter()
    # comb(600000, 300000) is 0 mod 7 and 46106955 mod 1000000007
    for p, expected in ((7, 0), (1000000007, 46106955)):
        problem = parse_problem("ring R = FF(%d)\nalgebra B = R<Y:2>\n" % p)
        assert parse_algebra_element(problem, "Y^(300000)*Y^(300000)") \
            == expected * problem.algebra.divided_power("Y", 600000)
    if hasattr(sys, "get_int_max_str_digits"):
        qq = parse_problem("ring R = QQ\nalgebra B = R<Y:2>\n")
        with pytest.raises(ParseError, match="^coefficient exceeds the"):
            parse_algebra_element(qq, "Y^(300000)*Y^(300000)")
    assert time.perf_counter() - start < 1


def _element_oracle(problem, rng, labels=()):
    """A random signed term as (text, label, element): the element is the
    product of the factors computed with element arithmetic."""
    B = problem.algebra
    field, ring = B.field, B.ring
    factors, label, value = [], None, B.one()
    if labels and rng.random() < 0.7:
        if rng.random() < 0.3:
            k = rng.randint(0, 3)
            factors.append(str(k))
            value = value * field.of(k)
        label = rng.choice(labels)
        factors.append(label)
    for _ in range(rng.randint(1, 5)):
        pick = rng.randrange(6)
        if pick == 0:
            k = rng.choice([0, 1, 2, 3, 5, 7, 12])
            factors.append(str(k))
            value = value * field.of(k)
        elif pick == 1:
            a, b = rng.randint(0, 9), rng.choice([1, 2, 4, 5, 8, 11])
            if field.char and b % field.char == 0:
                b = 1
            factors.append("%d/%d" % (a, b))
            value = value * (field.of(a) / field.of(b))
        elif pick == 2:
            g = rng.choice(ring.gens)
            k = rng.randint(1, 4)
            factors.append(g if k == 1 and rng.random() < 0.5 else "%s^%d" % (g, k))
            for _ in range(k):
                value = value * B.from_ring(ring.gen(g))
        elif pick in (3, 4):
            v = rng.choice(B.vars)
            k = rng.randint(0, 9 if not v.is_odd else 3)
            factors.append(v.name if k == 1 and rng.random() < 0.5
                           else "%s^%d" % (v.name, k))
            for _ in range(k):
                value = value * B.gen(v.name)
        else:
            v = rng.choice([v for v in B.vars if not v.is_odd])
            k = rng.randint(0, 9)
            factors.append("%s^(%d)" % (v.name, k))
            value = value * B.divided_power(v.name, k)
    negate = rng.random() < 0.3
    return ("-" if negate else "") + "*".join(factors), label, -value if negate else value


@pytest.mark.parametrize("field", ["QQ", "FF(2)", "FF(3)", "FF(7)"])
def test_terms_fold_like_element_products(field):
    """Terms evaluated straight to monomials equal the products and sums of
    elements: Koszul signs, binomials, factorials, relations and scalars."""
    import random

    from dglift.dsl import _env, _parse_expression, _Tokens

    problem = parse_problem("ring R = %s[x:1,y:2]/(x^3, x*y^2)\n"
                            "algebra B = R<X:1, Y:2, Z:3, W:4>\n" % field)
    B = problem.algebra
    rng = random.Random(field)
    labels = ("e", "f", "g")
    env = _env(B.ring, B.vars)
    env.update((lab, ("label", lab)) for lab in labels)
    for _ in range(150):
        text, _, value = _element_oracle(problem, rng)
        assert parse_algebra_element(problem, text) == value, text
        terms = [_element_oracle(problem, rng, labels)
                 for _ in range(rng.randint(1, 5))]
        total = {}
        for _, label, el in terms:
            total[label] = total[label] + el if label in total else el
        text = " + ".join(t for t, _, _ in terms).replace("+ -", "- ")
        ts = _Tokens(text, 1)
        parts = _parse_expression(ts, env, B)
        assert ts.done()
        assert parts == {lab: el for lab, el in total.items() if el}, text
    X, Y, Z = (B.gen(v) for v in "XYZ")
    assert parse_algebra_element(problem, "X*Z") == X * Z
    assert parse_algebra_element(problem, "Z*X") == Z * X == -(X * Z)
    assert parse_algebra_element(problem, "X^0") == B.one()
    assert parse_algebra_element(problem, "Y^(0)") == B.one()
    assert not parse_algebra_element(problem, "0*X*Y^3*x")
    assert not parse_algebra_element(problem, "X*Y*x*y^2")
    killed = parse_problem("ring R = %s[x:1]/(x)\nalgebra B = R<X:1>\n" % field)
    for text in ("x", "x^2", "X*x", "2*x*X"):
        assert not parse_algebra_element(killed, text)
    assert parse_algebra_element(killed, "x + X") == killed.algebra.gen("X")


@pytest.mark.parametrize("text, message", [
    ("ring R = FF(\n", "line 1: expected an integer, found end of line"),
    ("ring R = QQ[x:1]\nalgebra B = R<X:1 | dX = x\n",
     "line 2: expected '>', found end of line"),
    ("ring R = QQ[x:1]\nalgebra B = R<X:1 | dX = \n",
     "line 2: expected a factor, found end of line"),
    ("ring R = QQ[x:1]\nalgebra B = R<X:1 | dX = x>\nmodule N\n",
     "line 3: expected a name, found end of line"),
])
def test_errors_at_the_end_of_a_line_say_so(text, message):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == message


@pytest.mark.parametrize("diffs, message", [
    ("dX = , dY = 0", "expected a factor, found ','"),
    ("dX = x, dQ = x", "expected d<variable>, found 'dQ'"),
    ("dX = x y, dY = 0", "expected '>', found 'y'"),
    ("dX = x, dY = X*y y", "expected '>', found 'y'"),
    ("dX = W, dX = x", "undeclared name 'W'"),
])
def test_malformed_algebra_differentials(diffs, message):
    # each dX is parsed in place, so the first error is the leftmost one
    with pytest.raises(ParseError) as info:
        parse_problem("ring R = QQ[x:1,y:1]/(x*y)\n"
                      "algebra B = R<X:1, Y:2 | %s>\n" % diffs)
    assert str(info.value) == "line 2: " + message
