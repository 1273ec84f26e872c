"""Property tests of the problem reader's contract: every error names the
line that caused it, and what parses prints back to itself.

The examples are drawn with a fixed seed (``derandomize=True``), so every
run reads the same texts."""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from dglift import DGLiftError, ParseError, parse_problem, print_problem

from conftest import GOLDEN

CORPUS = GOLDEN.parent / "perfbench" / "corpus"
TEXTS = [path.read_text(encoding="utf-8")
         for path in sorted(GOLDEN.glob("**/*.dgp")) + sorted(CORPUS.glob("**/*.dgp"))]
# the characters of the language, a few outside it, and a line break
EDIT_CHARS = "xyzXYZe0123456789:,/()*+-^=[]<>| \n#dQF_.!"


@st.composite
def ring_lines(draw):
    """`ring R = ...` over QQ, FF(7) or FF(4), with up to three generators
    whose names may repeat and whose degrees run from -1 to 2, and
    optionally relations, products of powers of x, y and z."""
    text = "ring R = " + draw(st.sampled_from(["QQ", "FF(7)", "FF(4)"]))
    gens = draw(st.lists(st.tuples(st.sampled_from("xy"), st.integers(-1, 2)),
                         max_size=3))
    if gens:
        text += "[%s]" % ",".join("%s:%d" % gen for gen in gens)
    powers = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 2)),
                      min_size=1, max_size=2)
    relations = draw(st.lists(powers, max_size=2))
    if relations:
        text += "/(%s)" % ", ".join("*".join("%s^%d" % power for power in relation)
                                    for relation in relations)
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(ring_lines())
def test_a_ring_line_fails_only_as_a_parse_error_of_its_line(line):
    try:
        parse_problem(line + "\nalgebra B = R<>\n")
    except DGLiftError as exc:
        assert isinstance(exc, ParseError) and exc.line == 1, (line, exc)


@st.composite
def algebra_lines(draw):
    """A ring line and an algebra of two to four variables, some with a
    declared weight, whose dX sums up to two terms.  A term multiplies a
    scalar, up to two earlier variables and a ring monomial of degree up to
    three (or 1, after a variable), so the internal degree dX forces
    differs from the homological one and depends on those settled before
    X.  A variable's homological degree is mostly the one its first term
    asks for."""
    ring = draw(st.sampled_from(["QQ[x:1,y:1]/(x^2, x*y)", "FF(7)[x:1,y:2]/(x^2, x*y)",
                                 "QQ[x:2,y:3]/(x^2, x*y, y^2)",
                                 "FF(5)[x:1,y:2]/(x^2, x*y, y^2)"]))
    names = "XYZW"[:draw(st.integers(2, 4))]
    degrees, specs, diffs = [], [], []
    for k, name in enumerate(names):
        terms, asked = [], []
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            earlier = [draw(st.integers(0, k - 1))
                       for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if k else 0)]
            powers = ["x", "y", "y^2", "y^3"] + (["1"] if earlier else [])
            power = draw(st.sampled_from(powers))
            terms.append("*".join([draw(st.sampled_from(["1", "-2", "1/2", "3"]))]
                                  + [names[i] for i in earlier] + [power]))
            asked.append(1 + sum(degrees[i] for i in earlier))
        if asked and draw(st.integers(0, 3)):
            degrees.append(asked[0])
        else:
            degrees.append(draw(st.integers(1, 3)))
        spec = "%s:%d" % (name, degrees[-1])
        if not draw(st.integers(0, 7 if terms else 1)):
            spec += ":%d" % draw(st.integers(1, 4))
        specs.append(spec)
        if terms:
            diffs.append("d%s = %s" % (name, " + ".join(terms)))
    algebra = ", ".join(specs) + (" | " + ", ".join(diffs) if diffs else "")
    return "ring R = %s\nalgebra B = R<%s>\n" % (ring, algebra)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(algebra_lines())
def test_an_algebra_line_round_trips_or_fails_on_its_line(text):
    try:
        problem = parse_problem(text)
    except DGLiftError as exc:
        assert exc.line == 2, (text, exc)
        return
    printed = print_problem(problem)
    assert parse_problem(printed) == problem
    assert print_problem(parse_problem(printed)) == printed


@st.composite
def edited_texts(draw):
    """A golden or corpus text after one to four single-character edits:
    an insertion, a deletion or a replacement."""
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if kind == "delete" else draw(st.sampled_from(EDIT_CHARS))
        text = text[:at] + char + text[at + (kind != "insert"):]
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edited_texts())
def test_an_edited_text_round_trips_or_fails_on_a_line(text):
    try:
        problem = parse_problem(text)
    except DGLiftError as exc:
        assert exc.line is not None \
            or exc.message == "a problem needs a ring and an algebra", (text, exc)
        return
    printed = print_problem(problem)
    assert parse_problem(printed) == problem
    assert print_problem(parse_problem(printed)) == printed
