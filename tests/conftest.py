from pathlib import Path

import pytest

from dglift import parse_problem

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def golden_text(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def shipped_algebras():
    """The algebras of the two shipped problems, B = R<X:1, Y:2 | dX = x,
    dY = X*y> over QQ[x,y]/(x*y) (liftable.dgp), then over
    QQ[x,y]/(x^2, x*y) (nonliftable.dgp)."""
    return [parse_problem(golden_text(name)).algebra
            for name in ("liftable.dgp", "nonliftable.dgp")]


@pytest.fixture(scope="session")
def liftable_problem():
    return parse_problem(golden_text("liftable.dgp"))


@pytest.fixture(scope="session")
def nonliftable_problem():
    return parse_problem(golden_text("nonliftable.dgp"))


@pytest.fixture(scope="session")
def example_algebra(liftable_problem):
    """B = R<X:1, Y:2 | dX = x, dY = X*y> over QQ[x,y]/(x*y)."""
    return liftable_problem.algebra


@pytest.fixture(scope="session")
def module_n(liftable_problem):
    return liftable_problem.modules["N"]


@pytest.fixture(scope="session")
def module_m(nonliftable_problem):
    return nonliftable_problem.modules["M"]
