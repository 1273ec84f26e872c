"""The one per-object cache, ``lincomb.memoised``."""

import gc
import sys
import weakref
from pathlib import Path

import pytest

from dglift import ConstructionError, FreeDGAlgebra, QQ, Variable, check_lift, parse_problem
from dglift.coefficients import BaseRing
from dglift.lincomb import memoised

from conftest import golden_text

ROOT = Path(__file__).resolve().parent.parent


class Counter:
    """An owner whose memoised method records each computation it runs."""

    def __init__(self, fail=()):
        self.calls = []
        self.fail = set(fail)

    @memoised
    def combine(self, a, b=0):
        """a - b, or ValueError for an argument tuple in ``fail``."""
        self.calls.append((a, b))
        if (a, b) in self.fail:
            raise ValueError("refused")
        return [a - b]


def test_tables_are_per_instance():
    first, second = Counter(), Counter()
    assert first.combine(3, 1) == second.combine(3, 1) == [2]
    assert first.combine(3, 1) is first.combine(3, 1)
    assert first.combine(3, 1) is not second.combine(3, 1)
    assert first.calls == second.calls == [(3, 1)]
    assert first._memo_combine is not second._memo_combine
    assert "_memo_combine" not in vars(Counter())  # made at the first call


def test_tables_are_keyed_by_every_argument():
    owner = Counter()
    results = [owner.combine(a, b) for a, b in ((1, 2), (2, 1), (1, 3), (1, 2))]
    assert results == [[-1], [1], [-2], [-1]]
    assert owner.calls == [(1, 2), (2, 1), (1, 3)]
    assert set(owner._memo_combine) == {(1, 2), (2, 1), (1, 3)}
    # the key is the positional argument tuple as passed
    assert owner.combine(5) == [5]
    assert (5,) in owner._memo_combine


def test_a_computation_that_raises_is_not_stored():
    owner = Counter(fail=[(4, 4)])
    for _ in range(2):
        with pytest.raises(ValueError):
            owner.combine(4, 4)
    assert owner.calls == [(4, 4), (4, 4)]
    assert (4, 4) not in vars(owner).get("_memo_combine", {})
    owner.fail.clear()
    assert owner.combine(4, 4) == [0]


def test_the_decorated_function_keeps_its_name_and_docstring():
    assert Counter.combine.__name__ == "combine"
    assert Counter.combine.__doc__.startswith("a - b")


def test_a_table_does_not_keep_its_owner_alive():
    # freed by reference counting alone: no table refers back to its owner
    gc.disable()
    try:
        owner = Counter()
        owner.combine(1, 2)
        ring = BaseRing(QQ, ("x",), (1,), [(3,)])
        ring.graded_basis(2)
        ring.mono_mul((1,), (1,))
        # a decided module keeps no table, and its algebra's tables keep no module
        problem = parse_problem(golden_text("nonliftable.dgp"))
        module = problem.modules["M"]
        check_lift(module)
        assert not [name for name in vars(module) if name.startswith("_memo_")]
        refs = [weakref.ref(owner), weakref.ref(ring), weakref.ref(module)]
        del owner, ring, problem, module
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("path", ["golden/nonliftable.dgp",
                                  "perfbench/corpus/koszul-fp/k00.dgp"])
def test_an_algebra_and_its_ring_die_with_their_problem(path):
    # the algebra keeps each dX, and mono_diff each d(monomial), as a
    # coefficient dict, not as an element whose parent is the algebra
    gc.disable()
    try:
        problem = parse_problem((ROOT / path).read_text(encoding="utf-8"))
        for module in problem.modules.values():
            check_lift(module)
        assert problem.algebra._memo_mono_diff
        refs = [weakref.ref(problem.algebra), weakref.ref(problem.ring)]
        del problem, module
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer-string digit limit")
def test_a_binomial_past_the_digit_limit_raises_on_every_call():
    A = FreeDGAlgebra(BaseRing(QQ), [Variable("Y", 2, 2)])
    for _ in range(3):
        with pytest.raises(ConstructionError, match="coefficient exceeds the"):
            A.mono_mul((300000,), (300000,))
    assert ((300000,), (300000,)) not in vars(A).get("_memo_mono_mul", {})
    # a product under the limit is stored once computed
    hit = A.mono_mul((2,), (2,))
    assert hit == (QQ.of(6), (4,))
    assert A._memo_mono_mul[(2,), (2,)] is hit
