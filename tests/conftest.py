from pathlib import Path

import pytest

from dglift import parse_problem
from dglift.semifree import TensorEnvElement

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def entry(N, mu_label, lam_label):
    """b[mu][lam] of the module N, or None when it is zero."""
    i = N.index[mu_label]
    return next((b for k, b in N.columns[N.index[lam_label]] if k == i), None)


def iota_n(N, t):
    """The inclusion N (x) J -> N (x) B^e, slotwise."""
    return TensorEnvElement(N, {lab: j.to_envelope() for lab, j in t.coeffs.items()})


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


def gamma_system(N):
    """N's whole γ-system as (matrix, right-hand side): the equations of
    each label from ``obstruction._equation_block``, stacked in label
    order, over the unknowns of every label."""
    from dglift.linalg import BlockMatrix
    from dglift.obstruction import _equation_block, gamma_layout, obstruction_values

    obstruction = obstruction_values(N)
    layout = gamma_layout(N)
    entries, rhs = [], []
    for lam in range(N.rank):
        block, block_rhs = _equation_block(N, layout, lam, obstruction)
        entries += block.entries
        rhs += block_rhs
    ncols = layout[0].through(N.rank - 1)
    return BlockMatrix(entries, (len(entries), ncols), N.algebra.field), rhs
