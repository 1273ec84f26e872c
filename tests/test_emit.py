"""``emit_report`` writes JSON itself, by append and join; its text must be
``json.dumps(doc, ensure_ascii=False, indent=2)`` plus a newline, byte
for byte, on a table of awkward values, on values it leaves to
``json.dumps``, and on every report the CLI makes of the golden files and
the benchmark corpora."""

import json
from pathlib import Path

import pytest

from dglift import parse_problem
from dglift.cli import emit_report, run_command

from conftest import GOLDEN

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def reference(doc):
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


TABLE = [
    {},
    [],
    "",
    0,
    None,
    {"text": "e ⊗ (σ(X^o⊗Y)·x + -1^o⊗X*Y · x)", "quote": 'say "hi"',
     "backslash": "a\\b\\\\c", "newline": "a\nb", "tab": "a\tb", "control": "a\x01b\x1f",
     "separators": "a\u2028b\u2029c", "nul": "\x00", "delete": "\x7f", "surrogate": "\ud800",
     "astral": "\U0001d54a", "key \"with\" ⊗ and \\": "value"},
    {"empty list": [], "empty dict": {}, "nested": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
     "deep": {"a": {"b": {"c": [1, [2, [3, {"d": None}]]]}}}},
    {"ints": [0, -1, 7, -7, 2 ** 64, -(10 ** 40), 10 ** 300],
     "constants": [True, False, None, [True], {"t": False, "n": None}]},
    [1, "1", [1], {"1": 1}],
    {"version": "0.1.0", "problem": "ring R = FF(7)\nalgebra B = R<X:1 | dX = 0>\n",
     "results": [{"module": "N", "decision": "NOT_LIFTABLE", "method": "global-solve",
                  "obstruction": [{"basis": "e", "value": "0"}],
                  "certificate": {"kind": "gamma-system", "obstructed_at": "e", "unknowns": 4,
                                  "equations": 6, "null_functional": [
                                      {"row": "eq_up[u⊗σ(Y^o⊗X)·x]", "value": "-1/2"}],
                                  "pairing": "3"}}],
     "timing_ms": 12},
]


def test_the_emitter_matches_json_dumps_on_a_table_of_awkward_values():
    for doc in TABLE:
        assert emit_report(doc) == reference(doc), doc


def test_values_the_direct_writer_does_not_know_are_written_by_json_dumps():
    """Tuples, floats, subclasses of int and str, and keys that are not
    text make the whole report fall back to ``json.dumps``; a value
    ``json.dumps`` refuses is its TypeError."""
    class Count(int):
        pass

    class Name(str):
        pass

    for doc in ({"pair": (1, "⊗")}, [1.5, -0.0, 1e300], {"n": Count(3)}, [Name("σ")],
                {1: "one", None: [], True: {}}, {"deep": [{"t": ({"x": (2,)},)}]}):
        assert emit_report(doc) == reference(doc), doc
    for doc in ({"set": {1}}, [object()]):
        with pytest.raises(TypeError):
            emit_report(doc)


def test_the_emitter_matches_json_dumps_on_every_report():
    """Every file of golden/ and perfbench/corpus/, under
    validate, obstruction, check-lift --witness and homology --bidegree 3,4."""
    paths = sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))
    reports = 0
    for path in paths:
        problem = parse_problem(path.read_text(encoding="utf-8"))
        for command, options in (("validate", {}), ("obstruction", {}),
                                 ("check-lift", {"witness": True}),
                                 ("homology", {"bidegree": (3, 4)})):
            doc = run_command(command, problem, **options)
            assert emit_report(doc) == reference(doc), (path.name, command)
            reports += 1
    assert reports == 4 * 486  # every file of golden/ and the corpora
