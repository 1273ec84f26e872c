import random

import pytest

from dglift import (AlgebraElement, ConstructionError, DegreeMismatch,
                    DifferentialSquareNonzero, ModuleElement, SemifreeModule,
                    TensorJElement, TriangularityViolation, delta, rho)
from dglift.randomgen import (random_algebra, random_module, random_module_element,
                              standard_rings)
from dglift.semifree import TensorEnvElement

from conftest import entry, iota_n, shipped_algebras


def test_liftable_module_accepted(module_n):
    assert module_n.labels == ("e", "ep")
    assert module_n.degrees == (0, 4)
    assert module_n.weights == (0, 4)


def test_nonliftable_module_accepted(module_m):
    assert module_m.labels == ("u", "up")
    b = entry(module_m, "u", "up")
    assert b.bidegree() == (3, 4)


def test_d_squared_rejection_reports_the_pair(example_algebra):
    B = example_algebra
    with pytest.raises(DifferentialSquareNonzero) as info:
        SemifreeModule(B, ("e", "ep"), (0, 2), (0, 1), {("e", "ep"): B.gen("X")})
    assert info.value.pair == ("e", "ep")


def test_triangularity_violation(example_algebra):
    B = example_algebra
    with pytest.raises(TriangularityViolation):
        SemifreeModule(B, ("e", "f"), (0, 1), (0, 1), {("f", "e"): B.gen("X")})


def test_degree_mismatch(example_algebra):
    B = example_algebra
    with pytest.raises(DegreeMismatch):
        # X has homological degree 1, the gap asks for degree 2
        SemifreeModule(B, ("e", "f"), (0, 4), (0, 1), {("e", "f"): B.gen("X")})


@pytest.mark.parametrize("call, error, message", [
    (lambda B: SemifreeModule(B, ("e", "f"), (0,), (0, 0), {}), ConstructionError,
     "need one bidegree per basis label"),
    # X has bidegree (1, 1): the homological gap fits, the internal one does not
    (lambda B: SemifreeModule(B, ("e", "f"), (0, 2), (0, 2), {("e", "f"): B.gen("X")}),
     DegreeMismatch, "entry for (e, f) has internal degree 1, expected 2"),
    (lambda B: SemifreeModule(B, ("e",), (0,), (0,), {}).gen("f"), KeyError,
     "no basis label 'f'"),
], ids=["bidegrees", "internal-degree", "gen"])
def test_malformed_module_calls_are_refused(example_algebra, call, error, message):
    with pytest.raises(error) as info:
        call(example_algebra)
    assert info.value.args[0] == message


def test_module_differential_examples(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    assert N.gen("ep").diff() == N.element({"e": B.gen("X") * B.gen("Y") * y})
    assert not (N.gen("e") * B.from_ring(y)).diff()
    assert not (N.gen("ep") * B.gen("X")).diff().diff()


def test_tensor_differential_examples(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    t = TensorJElement(N, {"e": delta(B.divided_power("Y", 2))})
    assert t.diff() == TensorJElement(N, {"e": delta(B.gen("X") * B.gen("Y") * y)})
    assert not N.tensor_zero().diff()
    from dglift import rho as rho_b, sigma
    from dglift.envelope import op_inclusion
    s = TensorJElement(N, {"ep": sigma(op_inclusion(B.gen("X")) * rho_b(B.gen("Y")))})
    assert s  # ep (x) sigma(X^o (x) Y)
    assert not s.diff().diff()


def test_graded_splitting_examples(module_n):
    N = module_n
    B = N.algebra
    v = N.gen("e") * B.gen("X")
    assert N.rho_n(v) == TensorEnvElement(N, {"e": rho(B.gen("X"))})
    assert not N.sigma_n(TensorEnvElement(N, {"e": rho(B.gen("Y"))}))


def test_rho_fails_to_be_a_chain_map_on_the_example(module_n):
    N = module_n
    B = N.algebra
    y = B.ring.gen("y")
    gap = N.rho_n(N.gen("ep")).diff() - N.rho_n(N.gen("ep").diff())
    expected = iota_n(N, TensorJElement(N, {"e": delta(B.gen("X") * B.gen("Y") * y)}))
    assert gap == expected
    assert gap  # nonzero: rho_n does not commute with the differentials


def test_tensor_env_element_rejects_unknown_label(module_n):
    B = module_n.algebra
    with pytest.raises(ConstructionError):
        TensorEnvElement(module_n, {"nope": rho(B.gen("X"))})


def test_adding_elements_of_different_modules_raises(example_algebra):
    B = example_algebra
    # same labels, different bidegrees: only the module check tells them apart
    first = SemifreeModule(B, ("e",), (0,), (0,), {})
    second = SemifreeModule(B, ("e",), (1,), (1,), {})
    values = (B.one(), delta(B.gen("X")), rho(B.gen("X")))
    for cls, value in zip((ModuleElement, TensorJElement, TensorEnvElement), values):
        with pytest.raises(ConstructionError):
            cls(first, {"e": value}) + cls(second, {"e": value})
        assert cls(first, {"e": value}) != cls(second, {"e": value})


def test_cross_kind_elements_never_compare_equal(module_n):
    assert module_n.zero() != module_n.tensor_zero()
    assert not isinstance(module_n.tensor_zero(), ModuleElement)


def _random_pool(rng):
    pool = shipped_algebras()
    rings = standard_rings()
    pool.append(random_algebra(rng, rings[rng.randrange(len(rings))]))
    return pool


def raw_double_diff(module, label):
    """Independent d^2 oracle: differentiate twice through the element API."""
    return module.gen(label).diff().diff()


def test_validation_matches_brute_force_double_differential():
    rng = random.Random(31)
    pool = _random_pool(rng)
    for _ in range(40):
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        for lab in N.labels:
            assert not raw_double_diff(N, lab)


def test_random_invalid_structures_rejected():
    """Columns sampled outside the cycle space must fail validation, and
    the Leibniz d^2 oracle must equally report a nonzero square."""
    rng = random.Random(32)
    pool = _random_pool(rng)
    rejected = 0
    for _ in range(200):
        if rejected >= 25:
            break
        B = pool[rng.randrange(len(pool))]
        base = random_module(rng, B, max_rank=3)
        entries = {(i, j): b for j, column in enumerate(base.columns) for i, b in column}
        if not entries:
            continue
        # perturb one entry by a random same-bidegree element
        (i, j), entry = sorted(entries.items())[0]
        n, w = entry.bidegree()
        from dglift.randomgen import random_algebra_element
        noise = random_algebra_element(rng, B, n, w, density=1.0)
        candidate = entry + noise
        if not candidate or candidate == entry:
            continue
        structure = {(base.labels[a], base.labels[b]): e
                     for (a, b), e in entries.items()}
        structure[(base.labels[i], base.labels[j])] = candidate
        try:
            built = SemifreeModule(B, base.labels, base.degrees, base.weights,
                                   structure)
        except DifferentialSquareNonzero:
            rejected += 1
            continue
        for lab in built.labels:
            assert not raw_double_diff(built, lab)
    assert rejected >= 10


def test_tensor_diff_squares_to_zero_on_random_elements():
    rng = random.Random(33)
    pool = _random_pool(rng)
    checked = 0
    while checked < 60:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        from dglift.randomgen import random_gamma
        gamma = random_gamma(rng, N)
        for t in gamma.values():
            assert not t.diff().diff()
        checked += 1


def test_splitting_identities_on_random_tensor_elements():
    rng = random.Random(34)
    pool = _random_pool(rng)
    checked = 0
    while checked < 80:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        v = random_module_element(rng, N, rng.randint(0, 5), rng.randint(0, 5))
        assert N.pi_n(N.rho_n(v)) == v
        from dglift.randomgen import random_gamma
        gamma = random_gamma(rng, N)
        for t in gamma.values():
            assert N.sigma_n(iota_n(N, t)) == t
            lifted = iota_n(N, t)
            assert iota_n(N, N.sigma_n(lifted)) + N.rho_n(N.pi_n(lifted)) == lifted
        checked += 1


def test_internal_degree_preserved_by_module_and_tensor_differentials():
    rng = random.Random(35)
    pool = _random_pool(rng)
    checked = 0
    while checked < 60:
        B = pool[rng.randrange(len(pool))]
        N = random_module(rng, B)
        n, w = rng.randint(0, 5), rng.randint(0, 5)
        v = random_module_element(rng, N, n, w)
        if not v:
            continue
        dv = v.diff()
        if dv:
            assert dv.bidegree() == (n - 1, w)
        checked += 1


def _former_d_squared_check(N):
    """The d^2 = 0 check as SemifreeModule.__init__ made it before it read
    the columns: d(d(e_lam)) as a ModuleElement, first failing (nu, lam)."""
    for lam in N.labels:
        square = ModuleElement(N, {lam: N.algebra.one()}).diff().diff()
        for nu in N.labels:
            if nu in square.coeffs:
                raise DifferentialSquareNonzero(
                    "d^2 has nonzero component %s at (%s, %s)"
                    % (square.coeffs[nu], nu, lam), pair=(nu, lam))


def _d_squared_outcome(check):
    try:
        check()
    except DifferentialSquareNonzero as exc:
        return type(exc), str(exc), exc.pair
    return None


def _both_d_squared_checks(N, structure):
    """The outcome of the column check and of the former check on N's basis
    with the given structure."""
    B = N.algebra
    new = _d_squared_outcome(lambda: SemifreeModule(B, N.labels, N.degrees,
                                                    N.weights, structure))
    ref = SemifreeModule(B, N.labels, N.degrees, N.weights, {})
    for (mu, lam), b in structure.items():
        if b:
            ref.columns[ref.index[lam]].append((ref.index[mu], b))
    return new, _d_squared_outcome(lambda: _former_d_squared_check(ref))


def test_d_squared_check_matches_the_former_check_on_the_corpus():
    """On every corpus module, and with one entry dropped, doubled or moved
    within its bidegree, the column check raises exactly what the former
    element-level check raised: type, message and pair."""
    from pathlib import Path

    from dglift import DGLiftError, parse_problem

    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    files = sorted(corpus.glob("*/*.dgp"))
    assert len(files) == 483
    rng = random.Random(33)
    modules = failures = 0
    for path in files:
        try:
            problem = parse_problem(path.read_text(encoding="utf-8"))
        except DGLiftError:
            continue
        for N in problem.modules.values():
            modules += 1
            structure = {(N.labels[i], N.labels[j]): b
                         for j, column in enumerate(N.columns) for i, b in column}
            new, ref = _both_d_squared_checks(N, structure)
            assert new is None and ref is None
            B = N.algebra
            for key in rng.sample(sorted(structure), min(3, len(structure))):
                b = structure[key]
                n, w = b.bidegree()
                mono, rm = rng.choice(B.bidegree_basis(n, w))
                moved = AlgebraElement.from_terms(B, [((mono, rm), B.field.one)])
                for changed in (B.zero(), b * 2, b + moved, b - moved):
                    new, ref = _both_d_squared_checks(N, {**structure, key: changed})
                    assert new == ref, (path.name, key)
                    failures += new is not None
    assert modules > 1200 and failures > 300
