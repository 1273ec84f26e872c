"""Acceptance gate: every criterion at its stated tolerance.

All quantities in this domain are exact (rational or prime-field scalars),
so every tolerance is exact equality.  Each criterion prints one line,
ACCEPTANCE <n> <name>: PASS/FAIL, visible with `pytest -s` and in failure
output otherwise.
"""

import functools
import json
import random
import re

from dglift import (QQ, check_lift, delta, verify_certificate,
                    verify_witness)
from dglift.cli import main
from dglift.coefficients import principal_intersection_dim
from dglift.envelope import diagonal_block_keys, diagonal_diff_block
from dglift.linalg import coordinates, linear_solve, kernel_basis, rank
from dglift.obstruction import LIFTABLE, METHOD_TRIVIAL, NOT_LIFTABLE
from dglift.semifree import SemifreeModule, TensorJElement

from conftest import GOLDEN
from invariants import (suite_connections, suite_derivation, suite_homotopy,
                        suite_obstruction, suite_splitting)


def _criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %d %s: FAIL" % (number, name))
                raise
            print("ACCEPTANCE %d %s: PASS" % (number, name))
        return wrapper
    return decorate


@_criterion(1, "liftable-example")
def test_criterion_1_liftable_example(liftable_problem):
    problem = liftable_problem
    ring = problem.ring
    assert ring.field == QQ and ring.degrees == (1, 1)
    x, y = ring.gen("x"), ring.gen("y")
    for w in range(1, 7):
        assert principal_intersection_dim(ring, x, y, w) == 0
    N = problem.modules["N"]
    report = check_lift(N)
    assert report.decision == LIFTABLE
    assert verify_witness(N, report.witness)
    B = N.algebra
    expected = TensorJElement(N, {"e": delta(B.divided_power("Y", 2))})
    gap = report.witness["ep"] - expected
    # any two witnesses differ by a kernel element of the defining identity
    assert not gap.diff()
    # here the kernel is trivial, so the witness is literally delta(Y^(2))
    assert not kernel_basis(diagonal_diff_block(B, 4, 4))
    assert report.witness["ep"] == expected


@_criterion(2, "nonliftable-example")
def test_criterion_2_nonliftable_example(nonliftable_problem):
    M = nonliftable_problem.modules["M"]
    B = M.algebra
    report = check_lift(M)
    assert report.decision == NOT_LIFTABLE
    assert verify_certificate(M, report)
    # the block data: 6-dimensional target, 4 independent images, target v5
    block = diagonal_diff_block(B, 4, 4)
    assert block.shape == (6, 4)
    assert rank(block) == 4
    f = B.field
    unit = lambda i: [f.one if k == i else f.zero for k in range(6)]
    columns = [[block.rows[i][j] for i in range(6)] for j in range(4)]
    v = unit
    minus = lambda vec: [-s for s in vec]
    plus = lambda a, b: [p + q for p, q in zip(a, b)]
    assert columns == [minus(v(0)), plus(v(1), v(3)), plus(v(2), minus(v(4))),
                       v(5)]
    x = B.ring.gen("x")
    target = coordinates(delta(B.gen("X") * B.gen("Y") * x).terms(),
                         diagonal_block_keys(B, 3, 4), f)
    assert target == v(4)  # the fifth coordinate
    assert not linear_solve(block, target).consistent
    assert report.certificate["equations"] == 6
    assert report.certificate["unknowns"] == 4


@_criterion(3, "splitting-identities")
def test_criterion_3_splitting_suite():
    assert suite_splitting(seed=301, trials=110) == 110


@_criterion(4, "derivation-identities")
def test_criterion_4_derivation_suite():
    assert suite_derivation(seed=302, trials=110) == 110


@_criterion(5, "obstruction-equalities")
def test_criterion_5_obstruction_suite():
    assert suite_obstruction(seed=303, trials=100) == 100
    assert suite_connections(seed=304, trials=100) == 100


@_criterion(6, "homotopy-independence")
def test_criterion_6_homotopy_suite():
    assert suite_homotopy(seed=305, trials=55) == 55


@_criterion(7, "trivial-cases")
def test_criterion_7_trivial_cases(example_algebra):
    B = example_algebra
    rng = random.Random(306)
    for trial in range(20):
        rank_ = rng.randint(1, 5)
        labels = tuple("e%d" % i for i in range(rank_))
        degrees = tuple(sorted(rng.randint(0, 6) for _ in range(rank_)))
        weights = tuple(rng.randint(0, 6) for _ in range(rank_))
        N = SemifreeModule(B, labels, degrees, weights, {})
        report = check_lift(N)
        assert report.decision == LIFTABLE and report.method == METHOD_TRIVIAL
        assert all(not value for value in report.obstruction.values())
        assert verify_witness(N, report.witness)
    free_rank_one = SemifreeModule(B, ("e",), (0,), (0,), {})
    report = check_lift(free_rank_one)
    assert report.decision == LIFTABLE and report.method == METHOD_TRIVIAL


@_criterion(8, "cli-determinism")
def test_criterion_8_cli_determinism(capsys):
    for name in ("liftable.dgp", "nonliftable.dgp", "combined.dgp"):
        outputs = []
        for _ in range(2):
            code = main(["check-lift", str(GOLDEN / name), "--witness"])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(re.sub(r'"timing_ms": \d+', '"timing_ms": 0',
                                  captured.out))
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed JSON
    # the reported decisions are the golden ones
    code = main(["check-lift", str(GOLDEN / "combined.dgp")])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert {e["module"]: e["decision"] for e in doc["results"]} \
        == {"N": "LIFTABLE", "M": "NOT_LIFTABLE"}
