"""The one term renderer against the former per-class renderers.

``RingElement``, ``AlgebraElement`` and ``ModuleElement`` each had their own
``__repr__`` loop, B^e and J their own ``render_pair_terms``, and the
problem printer its own ring text; they are kept here, as they were, as
the reference for ``render_terms`` and ``BaseRing.__repr__``.
"""

import random
from fractions import Fraction
from pathlib import Path

from dglift import (AlgebraElement, DiagonalElement, EnvelopeElement,
                    check_lift, parse_problem)
from dglift.coefficients import ring_mono_key
from dglift.randomgen import (random_algebra, random_algebra_element,
                              random_diagonal_element, random_envelope_element,
                              random_module, random_module_element,
                              standard_rings)

from conftest import GOLDEN, golden_text

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


# -- the former renderers ----------------------------------------------------


def render_scalar_mono(scalar, mono):
    txt = str(scalar)
    if txt == "1":
        return mono
    if txt == "-1":
        return "-" + mono
    if mono == "1":
        return txt
    return "%s*%s" % (txt, mono)


def join_signed(parts):
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def former_ring_terms(el):
    """A ring element's (monomial, scalar) terms in the former print order:
    by weight, then descending lexicographic."""
    R = el.parent
    return sorted(el.coeffs.items(),
                  key=lambda item: (R.mono_weight(item[0]), ring_mono_key(item[0])))


def former_ring_element(el):
    if not el.coeffs:
        return "0"
    parts = []
    for exps, c in former_ring_terms(el):
        mono = el.parent.render_mono(exps)
        parts.append(render_scalar_mono(c, mono))
    return join_signed(parts)


def former_sorted_terms(el):
    out = []
    for mono, c in sorted(el.coeffs.items(),
                          key=lambda kv: el.algebra.mono_key(kv[0])):
        for rm, s in former_ring_terms(c):
            out.append((mono, rm, s))
    return out


def former_algebra_element(el):
    if not el.coeffs:
        return "0"
    parts = []
    for mono, rm, s in former_sorted_terms(el):
        m_txt = el.algebra.render_mono(mono)
        r_txt = el.algebra.ring.render_mono(rm)
        if m_txt == "1":
            combined = r_txt
        elif r_txt == "1":
            combined = m_txt
        else:
            combined = m_txt + "*" + r_txt
        parts.append(render_scalar_mono(s, combined))
    return join_signed(parts)


def former_module_element(el):
    if not el.coeffs:
        return "0"
    N = el.parent
    parts = []
    for lab in N.labels:
        if lab not in el.coeffs:
            continue
        for mono, rm, s in former_sorted_terms(el.coeffs[lab]):
            factors = [lab]
            m_txt = N.algebra.render_mono(mono)
            if m_txt != "1":
                factors.append(m_txt)
            r_txt = N.algebra.ring.render_mono(rm)
            if r_txt != "1":
                factors.append(r_txt)
            parts.append(render_scalar_mono(s, "*".join(factors)))
    return join_signed(parts)


def former_pair_text(algebra, m1, m2):
    left = algebra.render_mono(m1)
    if "*" in left or "^" in left:
        left = "(%s)" % left
    return "%s^o⊗%s" % (left, algebra.render_mono(m2))


def former_render_pair_terms(algebra, coeffs):
    if not coeffs:
        return "0"
    items = sorted(coeffs.items(),
                   key=lambda kv: (algebra.mono_key(kv[0][0]),
                                   algebra.mono_key(kv[0][1])))
    parts = []
    for (m1, m2), c in items:
        pair = former_pair_text(algebra, m1, m2)
        for rm, s in former_ring_terms(c):
            r_txt = algebra.ring.render_mono(rm)
            txt = str(s)
            body = pair if r_txt == "1" else "%s · %s" % (pair, r_txt)
            if txt == "1":
                parts.append(body)
            elif txt == "-1":
                parts.append("-" + body)
            else:
                parts.append("%s·%s" % (txt, body))
    return join_signed(parts)


def former_ring_text(ring):
    if ring.is_field:
        return ring.field.name
    gens = ",".join("%s:%d" % (g, d) for g, d in zip(ring.gens, ring.degrees))
    txt = "%s[%s]" % (ring.field.name, gens)
    if ring.relations:
        txt += "/(%s)" % ", ".join(ring.render_mono(r) for r in ring.relations)
    return txt


# -- comparisons ---------------------------------------------------------------


def assert_algebra_element(el):
    assert repr(el) == str(el) == former_algebra_element(el)
    for c in el.coeffs.values():
        assert repr(c) == former_ring_element(c)
    if el:  # a nonzero one with a rational or negated scalar
        scaled = el * Fraction(-1, 3) if not el.parent.field.char else -el
        assert repr(scaled) == former_algebra_element(scaled)


def assert_module(N):
    for lab in N.labels:
        d = N.gen(lab).diff()
        assert repr(d) == former_module_element(d)
    for column in N.columns:
        for _, entry in column:
            assert_algebra_element(entry)


def test_renderer_matches_the_former_ones_on_the_corpus():
    checked = 0
    for path in sorted(CORPUS.glob("*/*.dgp")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        B = problem.algebra
        assert repr(problem.ring) == former_ring_text(problem.ring)
        assert repr(B.ring.zero()) == former_ring_element(B.ring.zero()) == "0"
        assert repr(B.zero()) == former_algebra_element(B.zero())
        for d in B.diffs:
            assert_algebra_element(AlgebraElement(B, d))
        for N in problem.modules.values():
            assert_module(N)
            assert repr(N.zero()) == former_module_element(N.zero()) == "0"
        checked += 1
    assert checked > 450


def test_renderer_matches_the_former_ones_on_random_elements():
    rng = random.Random(41)
    for ring in standard_rings():
        assert repr(ring) == former_ring_text(ring)
        for _ in range(8):
            B = random_algebra(rng, ring)
            for n in range(4):
                for w in range(5):
                    assert_algebra_element(random_algebra_element(rng, B, n, w))
            N = random_module(rng, B)
            assert_module(N)
            for n in range(5):
                for w in range(5):
                    v = random_module_element(rng, N, n, w)
                    assert repr(v) == former_module_element(v)


def assert_pair_indexed(el, scalar):
    """repr of an element of B^e or J, and of it scaled, against the
    former renderer; J printed as the element of B^e that it is."""
    for u in (el, el * scalar):
        raw = u.to_envelope() if isinstance(u, DiagonalElement) else u
        assert repr(u) == str(u) == former_render_pair_terms(u.parent, raw.coeffs)


def test_pair_renderer_matches_the_former_one_on_random_elements():
    rng = random.Random(43)
    checked = 0
    for ring in standard_rings():
        # a rational scalar over QQ, a scalar neither 1 nor -1 over F_5
        scalar = Fraction(-1, 3) if not ring.field.char else ring.field.of(3)
        for _ in range(6):
            B = random_algebra(rng, ring)
            assert repr(EnvelopeElement(B, {})) == repr(DiagonalElement(B, {})) == "0"
            for n in range(4):
                for w in range(5):
                    u = random_envelope_element(rng, B, n, w)
                    j = random_diagonal_element(rng, B, n, w)
                    assert_pair_indexed(u, scalar)
                    assert_pair_indexed(j, scalar)
                    checked += bool(u) + bool(j)
    assert checked > 200


def test_j_text_from_keys_matches_the_envelope_text_on_every_value():
    """A J element prints from its sigma keys, with no B^e element built;
    every obstruction and witness value of every module of golden/ and
    perfbench/corpus/ must print as the former renderer prints the element
    of B^e that it is."""
    paths = sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))
    values = with_pi = 0
    for path in paths:
        problem = parse_problem(path.read_text(encoding="utf-8"))
        for N in problem.modules.values():
            report = check_lift(N)
            for family in (report.obstruction, report.witness or {}):
                for t in family.values():
                    for j in t.coeffs.values():
                        u = j.to_envelope()
                        assert str(j) == former_render_pair_terms(N.algebra, u.coeffs)
                        values += 1
                        with_pi += any(m1 == N.algebra.unit_mono for m1, _ in u.coeffs)
    assert (values, with_pi) == (723, 718)  # nonzero J coefficients; with an m1 = 1 part


def test_j_text_merges_the_pi_part_and_drops_what_cancels():
    """sigma(X^o⊗Y) - sigma(Y^o⊗X), X odd and Y even, has pi(X Y) - pi(Y X)
    = 0, so the m1 = 1 part of the element of B^e vanishes; with ring
    coefficients x and y on the first pair, only the y part survives."""
    B = parse_problem(golden_text("liftable.dgp")).algebra
    R, one = B.ring, B.field.one
    X, Y, unit = (1, 0), (0, 1), R.unit_mono
    x, y = (1, 0), (0, 1)
    cancelling = DiagonalElement.from_terms(B, [((X, Y, unit), one), ((Y, X, unit), -one)])
    assert not any(m1 == B.unit_mono for m1, _ in cancelling.to_envelope().coeffs)
    assert str(cancelling) == "X^o⊗Y - Y^o⊗X"
    partial = DiagonalElement.from_terms(
        B, [((X, Y, x), one), ((X, Y, y), one), ((Y, X, x), -one)])
    for j in (cancelling, partial, partial * Fraction(2, 3)):
        assert str(j) == former_render_pair_terms(B, j.to_envelope().coeffs)
    assert str(partial) == "-1^o⊗X*Y · y + X^o⊗Y · x + X^o⊗Y · y - Y^o⊗X · x"
