import json
import re
import sys
import time

import pytest

from dglift import ParseError, parse_problem
from dglift.cli import emit_report, main, run_command

from conftest import GOLDEN, golden_text


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalise(text):
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


def test_check_lift_liftable(capsys):
    code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / "liftable.dgp"),
                            "--module", "N", "--witness")
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["results"]
    assert entry["module"] == "N"
    assert entry["decision"] == "LIFTABLE"
    assert entry["method"] == "rank2-corollary"
    witness = {item["basis"]: item["value"] for item in entry["witness"]}
    assert witness["ep"] == "e ⊗ (-1^o⊗Y^(2) + (Y^(2))^o⊗1)"
    assert "certificate" not in entry


def test_check_lift_nonliftable(capsys):
    code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / "nonliftable.dgp"))
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["results"]
    assert entry["decision"] == "NOT_LIFTABLE"
    cert = entry["certificate"]
    assert entry["method"] == "rank2-corollary"
    assert cert["kind"] == "gamma-system"
    assert cert["unknowns"] == 4
    assert cert["equations"] == 6 and "rank" not in cert
    assert [item["row"] for item in cert["null_functional"]] == [
        "eq_up[u⊗σ(Y^o⊗X)·x]", "eq_up[u⊗σ((X*Y)^o⊗1)·x]"]
    assert "witness" not in entry


def test_check_lift_combined_runs_all_modules(capsys):
    code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / "combined.dgp"))
    assert code == 0
    doc = json.loads(out)
    decisions = {e["module"]: e["decision"] for e in doc["results"]}
    assert decisions == {"N": "LIFTABLE", "M": "NOT_LIFTABLE"}


def test_obstruction_text_prints_every_module(capsys):
    """The text report of ``obstruction`` lists each module and, under it,
    each basis element with its obstruction value, as the JSON report has
    them."""
    path = str(GOLDEN / "combined.dgp")
    _, out, _ = run_main(capsys, "obstruction", path)
    code, text, _ = run_main(capsys, "obstruction", path, "--format", "text")
    assert code == 0
    expected = []
    for entry in json.loads(out)["results"]:
        expected += ["module %s:" % entry["module"], "  obstruction:"]
        expected += ["    %s: %s" % (item["basis"], item["value"])
                     for item in entry["obstruction"]]
    assert [e["module"] for e in json.loads(out)["results"]] == ["N", "M"]
    assert text.splitlines()[1:-1] == expected
    assert "    up: u ⊗ (-1^o⊗X*Y · x + (X*Y)^o⊗1 · x)" in expected


def test_homology_command(capsys):
    code, out, _ = run_main(capsys, "homology", str(GOLDEN / "nonliftable.dgp"),
                            "--bidegree", "3,4")
    assert code == 0
    assert json.loads(out)["results"] == [{"bidegree": [3, 4], "dimension": 1}]
    code, out, _ = run_main(capsys, "homology", str(GOLDEN / "liftable.dgp"),
                            "--bidegree", "3,4")
    assert json.loads(out)["results"] == [{"bidegree": [3, 4], "dimension": 0}]


def test_delta_command(capsys):
    code, out, _ = run_main(capsys, "delta", str(GOLDEN / "liftable.dgp"),
                            "--element", "X*Y*y", "--format", "text")
    assert code == 0
    assert "delta(X*Y*y) = -1^o⊗X*Y · y + (X*Y)^o⊗1 · y" in out


def test_command_line_expression_error_names_no_line(capsys):
    """An --element expression has no source line, so its parse error
    states none."""
    code, out, err = run_main(capsys, "delta", str(GOLDEN / "liftable.dgp"),
                              "--element", "1/0")
    assert (code, out, err) == (2, "", "dglift: zero denominator\n")


def test_validate_command(capsys):
    code, out, _ = run_main(capsys, "validate", str(GOLDEN / "combined.dgp"))
    assert code == 0
    doc = json.loads(out)
    assert {e["object"] for e in doc["results"]} == {"ring", "algebra", "module"}
    assert all(e["status"] == "valid" for e in doc["results"])


@pytest.mark.parametrize("argv", [["selftest"], ["selftest", "--trials", "3"]])
def test_selftest_is_not_a_command(argv, capsys):
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid choice" in err


def test_exit_code_on_mathematical_rejection(tmp_path, capsys):
    bad = tmp_path / "bad.dgp"
    bad.write_text("ring R = QQ[x:1,y:1]\n"
                   "algebra B = R<X:1, Y:2 | dX = x, dY = X*y>\n")
    code, out, err = run_main(capsys, "validate", str(bad))
    assert code == 1
    assert "line 2" in err


def test_exit_code_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.dgp"
    bad.write_text("ring R = QQ[\n")
    code, out, err = run_main(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err
    code, _, _ = run_main(capsys, "validate", str(tmp_path / "missing.dgp"))
    assert code == 2


def test_undecodable_problem_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin.dgp"
    bad.write_bytes(b"ring R = QQ\n\xff\xfe\n")
    code, out, err = run_main(capsys, "check-lift", str(bad))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(bad) in err
    assert "internal error" not in err


def test_exit_code_on_unknown_module(capsys):
    code, _, err = run_main(capsys, "check-lift", str(GOLDEN / "liftable.dgp"),
                            "--module", "Zed")
    assert code == 2


def test_problem_echo_reparses(capsys):
    code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / "liftable.dgp"))
    doc = json.loads(out)
    assert parse_problem(doc["problem"]) == parse_problem(
        golden_text("liftable.dgp"))


def test_byte_determinism_modulo_timing(capsys):
    for name in ("liftable.dgp", "nonliftable.dgp", "combined.dgp"):
        runs = []
        for _ in range(2):
            code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / name),
                                    "--witness")
            assert code == 0
            runs.append(normalise(out))
        assert runs[0] == runs[1]


def test_report_round_trip():
    problem = parse_problem(golden_text("nonliftable.dgp"))
    doc = run_command("check-lift", problem, witness=True)
    assert list(doc) == ["version", "problem", "results", "timing_ms"]
    assert json.loads(emit_report(doc, "json")) == doc


def test_text_format_contains_pair_notation(capsys):
    code, out, _ = run_main(capsys, "check-lift", str(GOLDEN / "liftable.dgp"),
                            "--witness", "--format", "text")
    assert code == 0
    assert "^o⊗" in out
    assert "module N: LIFTABLE (method: rank2-corollary)" in out


def test_run_command_programmatic_obstruction():
    problem = parse_problem(golden_text("liftable.dgp"))
    doc = run_command("obstruction", problem)
    (entry,) = doc["results"]
    values = {item["basis"]: item["value"] for item in entry["obstruction"]}
    assert values["e"] == "0"
    assert values["ep"] == "e ⊗ (-1^o⊗X*Y · y + (X*Y)^o⊗1 · y)"


@pytest.mark.parametrize("call, error, message", [
    (lambda p: emit_report(run_command("validate", p), "xml"), ValueError,
     "unknown format 'xml'"),
    (lambda p: run_command("delta", p), ParseError,
     "delta needs --element <expression>"),
    (lambda p: run_command("homology", p), ParseError, "homology needs --bidegree n,w"),
    (lambda p: run_command("selftest", p), ParseError, "unknown command 'selftest'"),
], ids=["format", "delta", "homology", "command"])
def test_run_command_refuses_what_the_command_line_cannot_send(call, error, message):
    with pytest.raises(error) as info:
        call(parse_problem(golden_text("liftable.dgp")))
    assert str(info.value) == message


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_verbose_env_goes_to_stderr(monkeypatch, capsys):
    monkeypatch.setenv("DGLIFT_VERBOSE", "1")
    code, out, err = run_main(capsys, "validate", str(GOLDEN / "liftable.dgp"))
    assert code == 0
    assert "running validate" in err
    assert json.loads(out)  # stdout stays pure JSON


def test_report_round_trip_on_random_problems():
    import random

    from dglift.dsl import ProblemDescription, print_problem
    from dglift.randomgen import random_algebra, random_module, standard_rings

    rng = random.Random(62)
    rings = standard_rings()
    for trial in range(15):
        ring = rings[rng.randrange(len(rings))]
        B = random_algebra(rng, ring)
        modules = {"M0": random_module(rng, B, max_rank=3)}
        problem = ProblemDescription("R", ring, "B", B, modules)
        doc = run_command("check-lift", problem, witness=True)
        assert json.loads(emit_report(doc, "json")) == doc
        emit_report(doc, "text")  # renders without error
        assert parse_problem(doc["problem"]) == problem


def test_large_characteristics_exit_cleanly(tmp_path, capsys):
    problem = golden_text("liftable.dgp")
    prime = tmp_path / "prime.dgp"
    prime.write_text(problem.replace("QQ", "FF(1000000000000000003)"))
    huge = tmp_path / "huge.dgp"
    huge.write_text(problem.replace("QQ", "FF(%d)" % 10 ** 400))
    start = time.perf_counter()
    code, out, _ = run_main(capsys, "check-lift", str(prime))
    assert code == 0 and json.loads(out)["results"][0]["decision"] == "LIFTABLE"
    code, _, err = run_main(capsys, "validate", str(huge))
    assert code == 2 and "limit" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1


def test_rational_literals_reduce_mod_p(tmp_path, capsys):
    problem = "ring R = FF(5)[x:1]\nalgebra B = R<X:1 | dX = %s>\n"
    outputs = []
    for scalar in ("1/2*x", "3*x"):
        path = tmp_path / "f.dgp"
        path.write_text(problem % scalar)
        code, out, _ = run_main(capsys, "validate", str(path))
        assert code == 0
        outputs.append(out)
    assert normalise(outputs[0]) == normalise(outputs[1])
    assert parse_problem(problem % "1/2*x") == parse_problem(problem % "3*x")
    path.write_text(problem % "1/5*x")
    code, _, err = run_main(capsys, "validate", str(path))
    assert code == 2 and "line 2" in err and "Traceback" not in err


def test_reused_parser_matches_a_fresh_one(monkeypatch, capsys):
    from dglift import cli

    calls = [
        ["check-lift", str(GOLDEN / "liftable.dgp"), "--witness"],
        ["--help"],
        ["homology", str(GOLDEN / "nonliftable.dgp"), "--bidegree", "3,4"],
        ["check-lift", "--bogus", str(GOLDEN / "liftable.dgp")],
        [],
        ["validate", str(GOLDEN / "combined.dgp"), "--format", "text"],
        ["check-lift", "--help"],
        ["delta", str(GOLDEN / "liftable.dgp"), "--element", "X*Y"],
        ["obstruction", str(GOLDEN / "combined.dgp"), "--module", "M"],
    ]
    reused = [run_main(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_main(capsys, *argv))
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0, 0, 0, 0]
    assert [(code, normalise(out), err) for code, out, err in reused] \
        == [(code, normalise(out), err) for code, out, err in fresh]
    assert "usage: dglift" in reused[1][1] and "unrecognized" in reused[3][2]


def test_long_integer_literal_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "long.dgp"
    path.write_text("ring R = QQ[x:1]\nalgebra B = R<X:1 | dX = %s*x>\n"
                    % ("1" * 5000))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "dglift: line 2: integer literal of 5000 digits is too long\n"


def test_unprintable_rational_coefficient_is_a_parse_error(tmp_path, capsys):
    # Y^2000 is 2000! Y^(2000), a coefficient of 5736 digits
    path = tmp_path / "huge.dgp"
    path.write_text("ring R = QQ\nalgebra B = R<Y:2 | dY = 0>\n"
                    "module N over B = <e:0, f:4001 | df = e*Y^2000>\n")
    limit = sys.get_int_max_str_digits()
    for command in ("validate", "check-lift"):
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == ("dglift: line 3: coefficient exceeds the %d-digit limit "
                       "for integers\n" % limit)


def test_divided_power_binomials_in_a_module_end_quickly(tmp_path, capsys):
    # d(de3) = e1*Y^(300000)*Y^(300000) = comb(600000, 300000) e1*Y^(600000)
    path = tmp_path / "binomial.dgp"
    text = ("ring R = %s[x:1]\nalgebra B = R<Y:2>\nmodule N over B = <e1:0, "
            "e2:600001, e3:1200002 | de1 = 0, de2 = e1*Y^(300000), "
            "de3 = e2*Y^(300000)>\n")
    expected = {
        "QQ": (1, "dglift: line 3: coefficient exceeds the %d-digit limit for "
                  "integers\n" % sys.get_int_max_str_digits()),
        "FF(7)": (0, ""),
        "FF(1000000007)": (1, "dglift: line 3: d^2 has nonzero component "
                              "46106955*Y^(600000) at (e1, e3)\n"),
    }
    for field, (code, err) in expected.items():
        path.write_text(text % field)
        start = time.perf_counter()
        got_code, _, got_err = run_main(capsys, "validate", str(path))
        assert (got_code, got_err) == (code, err)
        assert time.perf_counter() - start < 1


def run_capped(argv, timeout=30):
    """``python -m dglift`` with argv in a child, with a timeout and a 1 GB
    address-space cap: a regression that loops or allocates without bound
    fails rather than fill the machine's memory."""
    import os
    import resource
    import subprocess
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "dglift"] + argv, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap)


def test_a_ring_exponent_near_a_billion_ends_quickly(tmp_path):
    """The last exponent of a graded basis is solved for, not looped over,
    so a basis in internal degree 10^9 over one generator costs nothing.
    Each command runs in a capped child (``run_capped``): the loop builds a
    list of 10^9 vectors."""
    path = tmp_path / "exponent.dgp"
    path.write_text("ring R = QQ[x:1]\nalgebra B = R<X:1:1>\n"
                    "module N over B = <e:0, f:2 | df = e*X*x^999999999>\n")
    for argv, answer in [(["check-lift", str(path)], '"decision": "NOT_LIFTABLE"'),
                         (["homology", str(path), "--bidegree", "3,1000000000"],
                          '"dimension": 0')]:
        done = run_capped(argv)
        assert done.returncode == 0 and answer in done.stdout, done.stderr


def test_a_ring_basis_builds_no_monomial_a_relation_divides(tmp_path):
    """A ring basis is enumerated with its relations, never built whole and
    then filtered: R_1999 over three generators with every product of two
    of them zero holds 3 monomials, not the 2 million of the polynomial
    ring.  Each command runs in a capped child (``run_capped``)."""
    path = tmp_path / "relations.dgp"
    path.write_text("ring R = QQ[x:1,y:1,z:1]/(x*y, y*z, x*z)\n"
                    "algebra B = R<X:1 | dX = x>\n"
                    "module N over B = <e:0, f:2 | df = e*X*y^1999>\n")
    for argv, answer in [(["check-lift", str(path)], '"decision": "NOT_LIFTABLE"'),
                         (["homology", str(path), "--bidegree", "1,2000"],
                          '"dimension": 2')]:
        done = run_capped(argv, timeout=10)
        assert done.returncode == 0 and answer in done.stdout, done.stderr


def test_a_homology_degree_near_ten_million_ends_quickly(tmp_path):
    """J_(n, w) holds no monomial m1 of degree above max_X floor(w d_X /
    w_X), every variable having internal degree at least 1, so the
    degrees of m1 are looped over only up to that bound: homology in
    degree 10^7 at weight 2 costs nothing.  Looping over every degree up
    to n took seconds per 10^6 and a memo entry per degree."""
    path = tmp_path / "degree.dgp"
    path.write_text("ring R = QQ[x:1]\nalgebra B = R<X:1:1>\nmodule N over B = <e:0>\n")
    done = run_capped(["homology", str(path), "--bidegree", "10000000,2"], timeout=10)
    assert done.returncode == 0 and '"dimension": 0' in done.stdout, done.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_unprintable_d_squared_component_is_a_rejection(tmp_path, capsys):
    # d^2(e3) = comb(10000, 5000)^2 e1*Y^(10000)*Z^(10000): each binomial is
    # under the digit limit, their product is not
    path = tmp_path / "square.dgp"
    path.write_text("ring R = QQ\nalgebra B = R<Y:2, Z:2>\nmodule N over B = "
                    "<e1:0, e2:20001, e3:40002 | de1 = 0, "
                    "de2 = e1*Y^(5000)*Z^(5000), de3 = e2*Y^(5000)*Z^(5000)>\n")
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert err == ("dglift: line 3: d^2 has nonzero component at (e1, e3): "
                   "coefficient exceeds the %d-digit limit for integers\n"
                   % sys.get_int_max_str_digits())


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_unprintable_d_of_a_differential_is_a_rejection(tmp_path, capsys):
    # d(dX) = comb(10000, 5000)^2 W^(10000)*V^(10000): each binomial is under
    # the digit limit, their product is not
    path = tmp_path / "dd.dgp"
    path.write_text("ring R = QQ\nalgebra B = R<W:2, V:2, U:20001:20000, X:40002 | "
                    "dU = W^(5000)*V^(5000), dX = W^(5000)*V^(5000)*U>\n")
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert err == ("dglift: line 2: d(dX) is nonzero: coefficient exceeds the "
                   "%d-digit limit for integers\n" % sys.get_int_max_str_digits())


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    from dglift import cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "run_command", broken)
    code, out, err = run_main(capsys, "validate", str(GOLDEN / "liftable.dgp"))
    assert code == 3 and out == ""
    assert err == "dglift: internal error: RuntimeError: boom second line\n"


def test_module_entry_point(capsys):
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    argv = ["check-lift", "golden/nonliftable.dgp", "--witness"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "dglift"] + argv, cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    code, out, err = run_main(capsys, "check-lift",
                              str(root / "golden" / "nonliftable.dgp"), "--witness")
    assert (done.returncode, normalise(done.stdout), done.stderr) \
        == (code, normalise(out), err)
    assert code == 0 and '"NOT_LIFTABLE"' in out


RING = "ring R = QQ[x:1,y:1]\n"
ALGEBRA = RING + "algebra B = R<X:1 | dX = x>\n"
VALIDATE = ("validate",)
DIGITS = "1" * 4000  # under the digit limit; a product of two is over it


# each case is named by the first words of its message, or by a fifth field
# where a line with two defects repeats the message of a single-defect case,
# or where a construction error's message names the entry, not the defect
@pytest.mark.parametrize("text, command, code, message", [
    pytest.param(*case[:4], id=case[4] if case[4:] else
                 "-".join(re.findall("[a-z]+", case[3].split(": ")[-1])[:6]))
    for case in [
        ("ring R = QQ[x:1]$\n", VALIDATE, 2, "line 1: unexpected character '$'"),
        (RING + "algebra B = R<X:1 | dX = x^(2)>\n", VALIDATE, 2,
         "line 2: divided powers only apply to even algebra variables"),
        (ALGEBRA + "module N over B = <e:0, f:1 | df = e^2>\n", VALIDATE, 2,
         "line 3: cannot raise 'label' to a power"),
        (RING + "algebra B = R<X:1 | dX = x^-1>\n", VALIDATE, 2,
         "line 2: negative exponent"),
        (RING + "algebra B = R<Y:2 | dY = Y^(-1)>\n", VALIDATE, 2,
         "line 2: negative divided power"),
        (ALGEBRA, ("delta", "--element", ""), 2, "empty expression"),
        ("ring R = QQ[x:1,x:1]\n", VALIDATE, 2, "line 1: duplicate ring generator"),
        # a ring with relations checks its generators before the relations
        # are read, and reports them the same way
        ("ring R = QQ[x:1,x:1]/(x)\n", VALIDATE, 2,
         "line 1: duplicate ring generator", "duplicate-generator-before-relations"),
        ("ring R = QQ[x:0]/(x)\n", VALIDATE, 2,
         "line 1: generator x has non-positive internal degree 0"),
        (RING + "algebra R = R<X:1 | dX = x>\n", VALIDATE, 2,
         "line 2: name 'R' is already in use", "algebra-named-like-the-ring"),
        (ALGEBRA, ("homology", "--bidegree", "3"), 2, "--bidegree expects n,w"),
        (ALGEBRA, ("homology", "--bidegree", "a,b"), 2, "--bidegree expects integers"),
        ("ring R = QQ[x:1]/(x - x)\n", VALIDATE, 2,
         "line 1: a relation must be a single monomial"),
        ("ring R = QQ[x:1,y:1]/(x+y)\n", VALIDATE, 2,
         "line 1: a relation must be a monomial with coefficient 1"),
        (RING + "algebra B = R<X:0>\n", VALIDATE, 2,
         "line 2: variable X needs homological degree >= 1"),
        (RING + "algebra B = R<X:1:0, Y:0>\n", VALIDATE, 2,
         "line 2: variable X needs internal degree >= 1"),
        (ALGEBRA + "module N under B = <e:0>\n", VALIDATE, 2,
         "line 3: expected 'over', found 'under'"),
        (ALGEBRA + "module N over B = <e:0 | dq = e>\n", VALIDATE, 2,
         "line 3: expected d<basis label>, found 'dq'"),
        (ALGEBRA + "module N over B = <e:0, f:1 | df = x>\n", VALIDATE, 2,
         "line 3: df has a component without a basis label"),
        (ALGEBRA + "module N over B = <e:0, f:1 | df = x, de = *>\n", VALIDATE, 2,
         "line 3: df has a component without a basis label", "df-before-a-later-defect"),
        # the module's weight errors are the constructor's, named by the defect
        (ALGEBRA + "module N over B = <e:0, f:1 | df = e*x + e*x^2>\n", VALIDATE, 1,
         "line 3: entry for (e, f) is not homogeneous", "the-e-component-of-df-is"),
        (ALGEBRA + "module N over B = <e:0, f:1 | de = f*x>\n", VALIDATE, 1,
         "line 3: entry d(e) -> f is not strictly triangular", "de-refers-to-f-which-is"),
        (ALGEBRA + "module N over B = <e:0, e2:0, g:1 | dg = e*x + e2*x^2>\n",
         VALIDATE, 1, "line 3: entry for (e2, g) has internal degree 2, expected 1",
         "components-of-dg-force-inconsistent-internal"),
        (RING + "algebra B = R<X:1:2 | dX = x>\n", VALIDATE, 1,
         "line 2: dX has internal degree 1, expected 2"),
        (RING + "algebra B = R<X:1, Y:2 | dX = x, dY = X*y + X*y^2>\n", VALIDATE, 1,
         "line 2: dY is not homogeneous"),
        (ALGEBRA + "module R over B = <e:0>\n", VALIDATE, 2,
         "line 3: name 'R' is already in use"),
        (RING + "module N over B = <e:0>\n", VALIDATE, 2,
         "line 2: declare the algebra before any module"),
        ("ring R = QQ\n", VALIDATE, 2, "a problem needs a ring and an algebra"),
        (RING + "algebra B = R<X:1, X:1>\n", VALIDATE, 2,
         "line 2: duplicate variable name"),
        (RING + "algebra B = R<x:1>\n", VALIDATE, 2,
         "line 2: variable name x clashes with a ring generator"),
        (RING + "algebra B = R<X:1 | dX = %s*%s*x>\n" % (DIGITS, DIGITS), VALIDATE, 2,
         "line 2: coefficient exceeds the %d-digit limit for integers"
         % sys.get_int_max_str_digits()),
        (ALGEBRA + "module N over B = <e:0, e:1>\n", VALIDATE, 1,
         "line 3: duplicate basis label"),
    ]])
def test_declaration_errors_exit_with_one_line(tmp_path, capsys, text, command,
                                               code, message):
    path = tmp_path / "bad.dgp"
    path.write_text(text)
    assert run_main(capsys, command[0], str(path), *command[1:]) \
        == (code, "", "dglift: %s\n" % message)


def test_an_algebra_weighted_in_declaration_order_validates(tmp_path, capsys):
    """dZ is homogeneous under the internal degrees dX and dY force (3 and
    1), not under the homological degrees (1 and 1); the reader used to
    measure it under those and reject the line."""
    path = tmp_path / "f006.dgp"
    path.write_text("ring R = QQ[x:1,y:1]/(x^2, x*y)\n"
                    "algebra B = R<X:1, Y:1, Z:2 | dX = -2*y^3, dY = -2*y, "
                    "dZ = -2*Y*y^2 + 2*X>\n")
    code, out, err = run_main(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert [entry["status"] for entry in json.loads(out)["results"]] == ["valid"] * 2
    assert [v.weight for v in parse_problem(path.read_text()).algebra.vars] == [3, 1, 3]


def test_a_repeated_algebra_differential_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.dgp"
    path.write_text(RING + "algebra B = R<X:1 | dX = x, dX = 0>\n")
    assert run_main(capsys, "validate", str(path)) \
        == (2, "", "dglift: line 2: dX is declared twice\n")


def test_a_repeated_module_differential_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "twice.dgp"
    path.write_text(ALGEBRA + "module N over B = <e:0, f:1 | df = e*x, df = 0>\n")
    assert run_main(capsys, "check-lift", str(path)) \
        == (2, "", "dglift: line 3: df is declared twice\n")
