import random

import pytest

from dglift import (Connection, SemifreeModule, TensorJElement,
                    canonical_connection, check_lift, criterion_rhs, delta,
                    obstruction_apply, obstruction_values, parse_problem,
                    psi_apply, psi_values, verify_certificate, verify_witness)
from dglift.obstruction import (LIFTABLE, METHOD_GLOBAL, METHOD_RANK2,
                                METHOD_TRIVIAL, NOT_LIFTABLE, _certificate_head,
                                gamma_layout)
from dglift.randomgen import (random_algebra, random_gamma,
                              random_module, random_module_element,
                              random_partial_solution, standard_rings)

from conftest import gamma_system, golden_text, shipped_algebras
from invariants import (delta_b_is_a_boundary, suite_connections, suite_decision,
                        suite_homotopy, suite_obstruction)


def test_obstruction_of_the_liftable_example(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    values = obstruction_values(N)
    assert not values["e"]
    assert values["ep"] == TensorJElement(
        N, {"e": delta(B.gen("X") * B.gen("Y") * y)})


def test_obstruction_vanishes_for_zero_differential(example_algebra):
    N = SemifreeModule(example_algebra, ("a", "b"), (0, 3), (0, 3), {})
    values = obstruction_values(N)
    assert not values["a"] and not values["b"]


def test_obstruction_modes_agree_on_examples(module_n, module_m):
    for N in (module_n, module_m):
        assert obstruction_values(N, "formula") == obstruction_values(N, "splitting")
    with pytest.raises(ValueError, match="^unknown mode 'matrix'$"):
        obstruction_values(module_n, "matrix")


def test_connection_examples(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    can = canonical_connection(N)
    for lab in N.labels:
        assert not can(N.gen(lab))
    v = N.gen("e") * (B.gen("X") * B.gen("Y") * y)
    assert can(v) == TensorJElement(N, {"e": delta(B.gen("X") * B.gen("Y") * y)})
    gamma = {"ep": TensorJElement(N, {"e": delta(B.divided_power("Y", 2))})}
    D = Connection(N, gamma)
    assert D(N.gen("ep")) == gamma["ep"]


def test_psi_examples(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    can = canonical_connection(N)
    values = psi_values(can)
    assert values["ep"] == -TensorJElement(
        N, {"e": delta(B.gen("X") * B.gen("Y") * y)})
    assert not values["e"]
    witness = Connection(N, {"ep": TensorJElement(
        N, {"e": delta(B.divided_power("Y", 2))})})
    assert not psi_apply(witness, N.gen("ep"))


def test_connection_bidegree_validation(module_n):
    N = module_n
    bad = TensorJElement(N, {"e": delta(N.algebra.gen("X") * N.algebra.gen("Y"))})
    with pytest.raises(Exception):
        Connection(N, {"ep": bad})


def test_liftable_example_decision(module_n):
    N = module_n
    report = check_lift(N)
    assert report.decision == LIFTABLE
    assert report.method == METHOD_RANK2
    assert verify_witness(N, report.witness)
    expected = TensorJElement(N, {"e": delta(N.algebra.divided_power("Y", 2))})
    assert report.witness["ep"] == expected


def test_nonliftable_example_decision(module_m):
    M = module_m
    report = check_lift(M)
    assert report.decision == NOT_LIFTABLE
    assert report.method == METHOD_RANK2
    assert report.certificate["kind"] == "gamma-system"
    assert report.certificate["unknowns"] == 4
    assert report.certificate["equations"] == 6
    assert verify_certificate(M, report)
    assert not delta_b_is_a_boundary(M)


def test_both_methods_agree_on_the_liftable_example(module_n):
    """The γ-system's decision and the rank-2 criterion read off J alone."""
    report = check_lift(module_n)
    assert report.decision == LIFTABLE and delta_b_is_a_boundary(module_n)
    assert verify_witness(module_n, report.witness)


def test_trivial_cases(example_algebra):
    one = SemifreeModule(example_algebra, ("e",), (0,), (0,), {})
    report = check_lift(one)
    assert report.decision == LIFTABLE and report.method == METHOD_TRIVIAL
    for rank in range(2, 6):
        labels = tuple("e%d" % i for i in range(rank))
        N = SemifreeModule(example_algebra, labels, tuple(range(rank)),
                           tuple(range(rank)), {})
        report = check_lift(N)
        assert report.decision == LIFTABLE and report.method == METHOD_TRIVIAL
        assert all(not v for v in report.obstruction.values())
        assert verify_witness(N, report.witness)


def test_verify_witness_examples(module_n):
    N = module_n
    good = {"ep": TensorJElement(N, {"e": delta(N.algebra.divided_power("Y", 2))})}
    assert verify_witness(N, good)
    assert not verify_witness(N, {})
    zero_diff = SemifreeModule(N.algebra, ("a",), (2,), (2,), {})
    assert verify_witness(zero_diff, {})


def test_a_witness_naming_a_label_outside_the_module_is_rejected(module_n):
    """A γ family is one value per basis label of N: an extra key is
    rejected, as ``verify_certificate`` rejects one, though every value
    N's labels read is right."""
    witness = check_lift(module_n).witness
    assert verify_witness(module_n, witness)
    assert not verify_witness(module_n, {**witness, "junk": witness["ep"]})
    assert not verify_witness(module_n, {**witness, "junk": module_n.tensor_zero()})
    assert not verify_witness(module_n, {"junk": witness["ep"]})


def _pool(rng):
    pool = shipped_algebras()
    rings = standard_rings()
    pool.append(random_algebra(rng, rings[rng.randrange(len(rings))]))
    return pool


def test_obstruction_mode_agreement_on_random_modules():
    rng = random.Random(41)
    pool = _pool(rng)
    for _ in range(100):
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        assert obstruction_values(N, "formula") == obstruction_values(N, "splitting")


def test_obstruction_is_right_linear_via_both_routes():
    rng = random.Random(42)
    pool = _pool(rng)
    checked = 0
    while checked < 60:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        v = random_module_element(rng, N, rng.randint(0, 6), rng.randint(0, 6))
        assert obstruction_apply(N, v) == obstruction_apply(N, v, "splitting")
        checked += 1


def test_psi_of_canonical_connection_is_negative_obstruction():
    rng = random.Random(43)
    pool = _pool(rng)
    for _ in range(60):
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        can = canonical_connection(N)
        values = obstruction_values(N)
        for lab in N.labels:
            assert psi_apply(can, N.gen(lab)) == -values[lab]


def test_psi_is_right_linear():
    rng = random.Random(44)
    pool = _pool(rng)
    checked = 0
    while checked < 40:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        D = Connection(N, random_gamma(rng, N))
        v = random_module_element(rng, N, rng.randint(0, 5), rng.randint(0, 5))
        from dglift.randomgen import random_algebra_element
        b = random_algebra_element(rng, B, rng.randint(0, 3), rng.randint(0, 3))
        assert psi_apply(D, v * b) == psi_apply(D, v) * b
        checked += 1


def test_partial_sum_cycles_along_partial_solutions():
    rng = random.Random(45)
    pool = _pool(rng)
    for _ in range(50):
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        gamma, blocked = random_partial_solution(rng, N)
        for lab in N.labels:
            assert not criterion_rhs(N, gamma, lab).diff()
            if lab == blocked:
                break
        if blocked is None:
            assert verify_witness(N, gamma)
            assert check_lift(N).decision == LIFTABLE


def test_rank2_and_global_decisions_agree():
    """On random rank-2 modules, the γ-system's decision is the rank-2
    criterion: LIFTABLE exactly when delta(b) is a boundary in J."""
    rng = random.Random(46)
    pool = _pool(rng)
    seen = {LIFTABLE: 0, NOT_LIFTABLE: 0}
    for _ in range(60):
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B, max_rank=2)
        if N.rank != 2 or not any(N.columns):
            continue
        report = check_lift(N)
        assert report.method == METHOD_RANK2
        assert report.liftable == delta_b_is_a_boundary(N)
        seen[report.decision] += 1
        if report.liftable:
            assert verify_witness(N, report.witness)
        else:
            assert verify_certificate(N, report)
    assert seen[LIFTABLE] > 0


def test_witness_and_certificate_suites():
    assert suite_obstruction(seed=201, trials=40) == 40
    assert suite_connections(seed=202, trials=40) == 40
    assert suite_homotopy(seed=203, trials=30) == 30
    assert suite_decision(seed=204, trials=25) == 25


def test_nonliftable_example_not_greedily_solvable(module_m):
    rng = random.Random(47)
    for _ in range(5):
        gamma, blocked = random_partial_solution(rng, module_m)
        assert blocked == "up"


def test_global_solve_succeeds_where_greedy_blocks():
    """Regression: the decision must solve one simultaneous system.

    Here the e2-equation has many solutions, but only gamma_e2 = e1 (x)
    delta(Y*y) also closes the e3-equation; a label-by-label solve that
    picks any other solution gets stuck at e3 even though the module lifts.
    """
    from dglift import parse_problem
    problem = parse_problem(
        "ring R = QQ[x:1,y:1]/(x^2, x*y)\n"
        "algebra B = R<X:1, Y:2 | dX = x, dY = X*y>\n"
        "module G over B = <e1:0:2, e2:2, e3:3 |"
        " de1 = 0, de2 = e1*X*y^2, de3 = -e1*Y*y + e2>\n")
    G = problem.modules["G"]
    report = check_lift(G)
    assert report.decision == LIFTABLE and report.method == METHOD_GLOBAL
    assert verify_witness(G, report.witness)
    B = G.algebra
    expected = TensorJElement(G, {"e1": delta(B.gen("Y") * B.ring.gen("y"))})
    assert report.witness["e2"] == expected
    blocked_count = 0
    for seed in range(6):
        gamma, blocked = random_partial_solution(random.Random(seed), G)
        if blocked is not None:
            assert blocked == "e3"
            blocked_count += 1
        else:
            assert verify_witness(G, gamma)
    assert blocked_count >= 4  # greedy gets stuck almost always


def _golden_with_module(text):
    return parse_problem(golden_text("nonliftable.dgp")
                         + "module P over B = %s\n" % text).modules["P"]


# M with a third generator whose blocks are not empty: decided by the global
# solve, with a γ-system of its own
RANK_THREE = "<u:0, up:4, z:4:4 | du = 0, dup = u*X*Y*x, dz = 0>"


def _nonliftable(module_m, method):
    """M, decided by the rank-2 corollary, or the rank-3 module P, decided
    by the global solve, with its NOT_LIFTABLE report."""
    N = module_m if method == "rank2" else _golden_with_module(RANK_THREE)
    report = check_lift(N)
    assert report.method == {"rank2": METHOD_RANK2, "global": METHOD_GLOBAL}[method]
    assert verify_certificate(N, report)
    return N, report


def test_certificate_with_one_value_changed_is_rejected(module_m):
    from copy import deepcopy

    from dglift.obstruction import _parse_scalar

    field = module_m.algebra.field
    for method in ("rank2", "global"):
        N, report = _nonliftable(module_m, method)
        items = report.certificate["null_functional"]
        assert items
        for k in range(len(items)):
            tampered = deepcopy(report)
            item = tampered.certificate["null_functional"][k]
            item["value"] = str(_parse_scalar(field, item["value"]) + 1)
            assert not verify_certificate(N, tampered)


def _with_functional(report, items):
    from copy import deepcopy

    tampered = deepcopy(report)
    tampered.certificate["null_functional"] = items
    return tampered


def _assert_each_value_rejected_as(N, report, bad):
    items = report.certificate["null_functional"]
    for k in range(len(items)):
        tampered = [dict(item) for item in items]
        tampered[k]["value"] = bad
        assert not verify_certificate(N, _with_functional(report, tampered))


@pytest.mark.parametrize("method", ["rank2", "global"])
def test_certificate_naming_an_unknown_row_is_rejected(module_m, method):
    N, report = _nonliftable(module_m, method)
    items = report.certificate["null_functional"]
    for extra in ({"row": "no such row", "value": "5"},
                  {"row": "no such row", "value": "0"}):
        assert not verify_certificate(N, _with_functional(report, items + [extra]))


@pytest.mark.parametrize("method", ["rank2", "global"])
def test_certificate_naming_a_row_twice_is_rejected(module_m, method):
    N, report = _nonliftable(module_m, method)
    items = report.certificate["null_functional"]
    for tampered in (items + items, items + [dict(items[0], value="0")]):
        assert not verify_certificate(N, _with_functional(report, tampered))


@pytest.mark.parametrize("method", ["rank2", "global"])
def test_malformed_certificate_values_are_rejected(module_m, method):
    N, report = _nonliftable(module_m, method)
    for bad in ("1/2/3", "abc", "", "1/", "/2", None, 1,
                "+1", " 1", "01", "2/2", "0_1"):
        _assert_each_value_rejected_as(N, report, bad)


# the certificates of M and of P state 0 unknowns; z adds no block to P's
ZERO_HEADS = """ring R = QQ[x:1,y:1]/(x^2, x*y)
algebra B = R<X:1 | dX = 2*y^2>
module M over B = <e1:2:2, e2:4:5 | de1 = 0, de2 = 2*e1*X*x>
module P over B = <e1:2:2, e2:4:5, z:9 | de1 = 0, de2 = 2*e1*X*x, dz = 0>
"""


@pytest.mark.parametrize("method", ["rank2", "global"])
def test_certificate_with_a_key_outside_its_head_is_rejected(module_m, method):
    from copy import deepcopy

    from dglift.linalg import rank

    N, report = _nonliftable(module_m, method)
    true_rank = rank(gamma_system(N)[0])
    # a stated rank, even the true one, an unknown key, and each head key
    # left out
    for extra in ({"rank": true_rank}, {"rank": None}, {"comment": "x"}):
        tampered = deepcopy(report)
        tampered.certificate.update(extra)
        assert not verify_certificate(N, tampered), extra
    for key in report.certificate:
        if key not in ("null_functional", "pairing"):
            tampered = deepcopy(report)
            del tampered.certificate[key]
            assert not verify_certificate(N, tampered), key
    # a head number of another JSON type is rejected, though Python calls it
    # equal: 4.0 for 4, False for 0
    small = parse_problem(ZERO_HEADS).modules["M" if method == "rank2" else "P"]
    assert check_lift(small).certificate["unknowns"] == 0
    for N in (N, small):
        report = check_lift(N)
        assert verify_certificate(N, report)
        for key in ("unknowns", "equations"):
            value = report.certificate[key]
            for bad in [float(value)] + ([bool(value)] if value in (0, 1) else []):
                tampered = deepcopy(report)
                tampered.certificate[key] = bad
                assert not verify_certificate(N, tampered), (key, bad)


@pytest.mark.parametrize("method", ["rank2", "global"])
@pytest.mark.parametrize("field, zeros", [("QQ", ["1/0", "0/0"]),
                                          ("FF(7)", ["1/0", "1/14", "3/49", "8"])])
def test_zero_denominators_are_rejected(field, zeros, method):
    # "8" is 1 in FF(7) but not the text the field prints for it
    text = golden_text("nonliftable.dgp").replace("QQ", field)
    if method == "global":
        text += "module P over B = %s\n" % RANK_THREE
    N = parse_problem(text).modules["M" if method == "rank2" else "P"]
    report = check_lift(N)
    assert verify_certificate(N, report)
    for bad in zeros:
        _assert_each_value_rejected_as(N, report, bad)


@pytest.mark.parametrize("method", ["rank2", "global"])
@pytest.mark.parametrize("shape", ["item without row", "list as row", "string as item",
                                   "item with an extra key", "null functional",
                                   "no pairing"])
def test_structurally_malformed_certificates_are_rejected(module_m, method, shape):
    from copy import deepcopy

    N, report = _nonliftable(module_m, method)
    tampered = deepcopy(report)
    cert = tampered.certificate
    first = cert["null_functional"][0]
    if shape == "item without row":
        del first["row"]
    elif shape == "list as row":
        first["row"] = [first["row"]]
    elif shape == "string as item":
        cert["null_functional"][0] = first["row"]
    elif shape == "item with an extra key":
        first["junk"] = 1
    elif shape == "null functional":
        cert["null_functional"] = None
    else:
        del cert["pairing"]
    assert not verify_certificate(N, tampered)


def test_certificate_with_another_head_value_is_rejected(module_m):
    from copy import deepcopy

    report = check_lift(module_m)
    for key in ("unknowns", "equations"):
        for bad in (report.certificate[key] - 1, report.certificate[key] + 1,
                    str(report.certificate[key]), None):
            tampered = deepcopy(report)
            tampered.certificate[key] = bad
            assert not verify_certificate(module_m, tampered), (key, bad)
    for kind in ("boundary-membership", "GAMMA-SYSTEM", None):
        tampered = deepcopy(report)
        tampered.certificate["kind"] = kind
        assert not verify_certificate(module_m, tampered), kind


def test_boundary_certificate_on_a_rank_one_module_is_rejected(module_m):
    report = check_lift(module_m)
    assert not verify_certificate(_golden_with_module("<e:0 | de = 0>"), report)


def test_boundary_certificate_on_a_rank_three_module_is_rejected(module_m):
    """M's certificate names rows of M's γ-system, obstructed at up.  On
    Q, whose z comes before up and adds blocks to the equations up to up,
    it fails the head.  On P, whose z comes after up, and on P0, whose z
    adds no block at all, the equations up to up are M's, and the
    certificate is a true proof that the module does not lift."""
    report = check_lift(module_m)
    assert report.certificate["obstructed_at"] == "up"
    Q = _golden_with_module("<u:0, z:4:4, up:4 | du = 0, dz = 0, dup = u*X*Y*x>")
    assert check_lift(Q).method == METHOD_GLOBAL
    assert _certificate_head(gamma_layout(Q), "up") != _certificate_head(
        gamma_layout(module_m), "up")
    assert not verify_certificate(Q, report)
    P = _golden_with_module(RANK_THREE)
    P0 = _golden_with_module("<u:0, up:4, z:9 | du = 0, dup = u*X*Y*x, dz = 0>")
    for N in (P, P0):
        assert check_lift(N).method == METHOD_GLOBAL
        assert _certificate_head(gamma_layout(N), "up") == _certificate_head(
            gamma_layout(module_m), "up")
        assert verify_certificate(N, report)
    assert _certificate_head(gamma_layout(P), "z") != _certificate_head(
        gamma_layout(P0), "z")


def _negated(key_map):
    """``key_map`` with every scalar of every image negated."""
    def negated(B, *args):
        raw, of = B.field.raw, B.field.of
        return [[(k, raw(-of(s))) for k, s in image] for image in key_map(B, *args)]
    return negated


@pytest.mark.parametrize("image", ["diagonal_key_left", "diagonal_key_right",
                                   "diagonal_key_diff"])
def test_certificates_of_a_wrong_gamma_system_are_rejected(monkeypatch, image):
    """The checker builds each column by element arithmetic, not from the
    key-level images the solver's builder reads.  With one of the
    builder's images negated (b . j in d(t), the later terms t b, or
    the sign of d(j)), the solver certifies a wrong system, and some of
    those certificates fail the check."""
    from pathlib import Path

    from dglift import obstruction

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    texts = [golden_text(name) for name in ("liftable.dgp", "nonliftable.dgp",
                                            "combined.dgp")]
    texts += [(corpus / "koszul-fp" / ("k%02d.dgp" % k)).read_text(encoding="utf-8")
              for k in range(10)]

    def parse_modules():
        return [N for text in texts for N in parse_problem(text).modules.values()]

    for N in parse_modules():
        report = check_lift(N)
        assert report.liftable or verify_certificate(N, report)
    monkeypatch.setattr(obstruction, image, _negated(getattr(obstruction, image)))
    reports = [(N, check_lift(N)) for N in parse_modules()]
    assert any(not report.liftable and not verify_certificate(N, report)
               for N, report in reports)


@pytest.mark.parametrize("image", ["diagonal_key_left", "diagonal_key_right",
                                   "diagonal_key_diff"])
def test_a_wrong_key_map_cannot_certify_itself(monkeypatch, image):
    """The checker computes its columns through B^e, not through the J key
    maps.  With one of them negated in each module that binds it, some
    modules turn wrongly NOT_LIFTABLE, and every one of their certificates
    fails the check."""
    from pathlib import Path

    from dglift import envelope, obstruction

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    texts = [golden_text(name) for name in ("liftable.dgp", "nonliftable.dgp",
                                            "combined.dgp")]
    texts += [path.read_text(encoding="utf-8")
              for path in sorted((corpus / "koszul-fp").glob("*.dgp"))]

    def parse_modules():
        return [N for text in texts for N in parse_problem(text).modules.values()]

    liftable = [check_lift(N).liftable for N in parse_modules()]
    negated = _negated(getattr(envelope, image))
    for binding in (envelope, obstruction):
        monkeypatch.setattr(binding, image, negated)
    modules = parse_modules()
    wrong = [(N, report) for N, report, truth
             in zip(modules, map(check_lift, modules), liftable)
             if truth and not report.liftable]
    assert wrong
    assert not any(verify_certificate(N, report) for N, report in wrong)


@pytest.mark.parametrize("image", ["diagonal_key_left", "diagonal_key_right",
                                   "diagonal_key_diff"])
def test_a_wrong_key_map_cannot_verify_its_own_witness(monkeypatch, image):
    """verify_witness checks d(gamma) through DiagonalElement arithmetic,
    which computes in B^e, not through the J key maps.  With one of them
    negated where the builder reads it, some witness is solved from the
    wrong system, and the check rejects it.  The four frontend files hold
    the only modules whose witness reads the left action."""
    from pathlib import Path

    from dglift import envelope, obstruction

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    texts = [golden_text(name) for name in ("liftable.dgp", "nonliftable.dgp",
                                            "combined.dgp")]
    texts += [path.read_text(encoding="utf-8")
              for path in sorted((corpus / "koszul-fp").glob("*.dgp"))]
    texts += [(corpus / "frontend" / ("%s.dgp" % name)).read_text(encoding="utf-8")
              for name in ("f003", "f011", "f012", "f018")]
    negated = _negated(getattr(envelope, image))
    for binding in (envelope, obstruction):
        monkeypatch.setattr(binding, image, negated)
    modules = [N for text in texts for N in parse_problem(text).modules.values()]
    reports = [(N, check_lift(N)) for N in modules]
    assert any(report.liftable and not verify_witness(N, report.witness)
               for N, report in reports)


def test_the_checker_calls_no_builder_and_no_elimination(monkeypatch):
    """verify_certificate reads the head from the bases and builds its
    columns from elements: with the γ-system builder, the J differential
    block and every elimination made to raise, it still accepts each
    certificate of these modules, two of them decided by the rank-2
    corollary."""
    from pathlib import Path

    from dglift import envelope, linalg, obstruction

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    texts = [golden_text(name) for name in ("nonliftable.dgp", "combined.dgp")]
    texts += [(corpus / "koszul-fp" / name).read_text(encoding="utf-8")
              for name in ("k00.dgp", "k05.dgp", "k09.dgp")]
    reports = [(N, check_lift(N)) for text in texts
               for N in parse_problem(text).modules.values()]
    reports = [(N, report) for N, report in reports if not report.liftable]
    assert len(reports) == 5
    assert sum(report.method == METHOD_RANK2 for _, report in reports) == 2

    def forbidden(*args):
        raise AssertionError("the checker called a builder or an elimination")

    monkeypatch.setattr(obstruction, "_equation_block", forbidden)
    monkeypatch.setattr(envelope, "diagonal_diff_block", forbidden)
    for name in ("rank", "linear_solve", "kernel_basis", "Elimination"):
        monkeypatch.setattr(linalg, name, forbidden)
    assert all(verify_certificate(N, report) for N, report in reports)


def _early_stop():
    """A Koszul module whose γ-system is already inconsistent on the
    equations of a proper prefix of its labels, with more equations
    after it, and its report."""
    from pathlib import Path

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    for path in sorted((corpus / "koszul-fp").glob("*.dgp")):
        for N in parse_problem(path.read_text(encoding="utf-8")).modules.values():
            report = check_lift(N)
            if report.liftable:
                continue
            equations = gamma_layout(N)[1]
            if equations.through(N.rank - 1) > report.certificate["equations"]:
                assert verify_certificate(N, report)
                return N, report
    raise AssertionError("no Koszul module stops before its last equation")


@pytest.mark.parametrize("stated", [None, 1, True, ["up"], {"up": 1}])
def test_certificate_with_an_obstructed_at_other_than_text_is_rejected(module_m, stated):
    from copy import deepcopy

    for N, report in ((module_m, check_lift(module_m)), _early_stop()):
        tampered = deepcopy(report)
        tampered.certificate["obstructed_at"] = stated
        assert not verify_certificate(N, tampered)


def test_certificate_obstructed_at_a_label_outside_the_module_is_rejected(module_m):
    from copy import deepcopy

    report = check_lift(module_m)
    for stated in ("", "z", "UP", "up ", "eq_up"):
        tampered = deepcopy(report)
        tampered.certificate["obstructed_at"] = stated
        assert not verify_certificate(module_m, tampered), stated


def test_certificate_naming_a_row_after_obstructed_at_is_rejected():
    """The functional may name only equations of the labels up to the
    stated one: a row of a later label is rejected, with a zero value or
    not."""
    N, report = _early_stop()
    equations = gamma_layout(N)[1]
    equations.through(N.rank - 1)
    later = equations.name(report.certificate["equations"])
    items = report.certificate["null_functional"]
    for value in ("0", "1"):
        extra = {"row": later, "value": value}
        assert not verify_certificate(N, _with_functional(report, items + [extra]))


def test_certificate_stating_the_whole_system_is_rejected():
    """The head counts the unknowns and equations up to obstructed_at, not
    those of the whole system."""
    from copy import deepcopy

    N, report = _early_stop()
    tampered = deepcopy(report)
    tampered.certificate.update(_whole_system_head(N))
    assert not verify_certificate(N, tampered)


def _whole_system_head(N):
    unknowns, equations = gamma_layout(N)
    return {"unknowns": unknowns.through(N.rank - 1),
            "equations": equations.through(N.rank - 1)}


def test_certificate_without_obstructed_at_is_rejected(module_m):
    """A certificate without "obstructed_at" is rejected: with the head of
    the equations up to that label, and in the former format, whose head
    counted the whole system, although its functional, naming equations of
    that prefix only, annihilates the whole system too."""
    from copy import deepcopy

    for N, report in ((module_m, check_lift(module_m)), _early_stop()):
        for head in ({}, _whole_system_head(N)):
            tampered = deepcopy(report)
            del tampered.certificate["obstructed_at"]
            tampered.certificate.update(head)
            assert not verify_certificate(N, tampered), head
