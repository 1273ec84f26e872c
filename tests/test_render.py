"""The one term renderer against the former per-class renderers.

``RingElement``, ``AlgebraElement`` and ``ModuleElement`` each had their own
``__repr__`` loop, B^e and J their own ``render_pair_terms``, and the
problem printer its own ring text; they are kept here, as they were, as
the reference for ``render_terms`` and ``BaseRing.__repr__``.
"""

import random
from fractions import Fraction
from pathlib import Path

from dglift import (AlgebraElement, DGLiftError, DiagonalElement,
                    EnvelopeElement, parse_problem)
from dglift.randomgen import (random_algebra, random_algebra_element,
                              random_diagonal_element, random_envelope_element,
                              random_module, random_module_element,
                              standard_rings)

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


def former_ring_element(el):
    if not el.coeffs:
        return "0"
    parts = []
    for exps, c in el.sorted_terms():
        mono = el.parent.render_mono(exps)
        parts.append(render_scalar_mono(c, mono))
    return join_signed(parts)


def former_sorted_terms(el):
    out = []
    for mono, c in sorted(el.coeffs.items(),
                          key=lambda kv: el.algebra.mono_key(kv[0])):
        for rm, s in c.sorted_terms():
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
        for rm, s in c.sorted_terms():
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
        try:
            problem = parse_problem(path.read_text(encoding="utf-8"))
        except DGLiftError:  # the parser's known rejections
            continue
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
