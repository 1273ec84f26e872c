import random
from fractions import Fraction
from pathlib import Path

import pytest

from dglift import (BlockMatrix, CompositionNonzero, ConstructionError,
                    PrimeField, QQ, delta, homology_dim, kernel_basis, linear_solve,
                    parse_problem, rank)
from dglift import linalg
from dglift.coefficients import ModP, RingElement, multiplication_block
from dglift.envelope import (DiagonalElement, EnvelopeElement, diagonal_block_keys,
                             diagonal_diff_block, diagonal_homology_dim, diagonal_key_diff,
                             diagonal_key_left, diagonal_key_right, sigma)
from dglift.free_dga import AlgebraElement
from dglift.obstruction import _certificate_head, criterion_rhs, gamma_layout
from dglift.semifree import ModuleElement, TensorJElement

from conftest import GOLDEN, gamma_system


def dense_block(rows, ncols, field):
    """A block with the given dense rows of field scalars, through the one
    constructor, which holds them as raw scalars."""
    return BlockMatrix([{j: field.raw(x) for j, x in enumerate(row) if x} for row in rows],
                       (len(rows), ncols), field)


def matrix(rows, field=QQ):
    rows = [[field.of(x) for x in row] for row in rows]
    nc = len(rows[0]) if rows else 0
    return dense_block(rows, nc, field)


def apply_matrix(matrix, vec):
    """matrix . vec, for a vector of field scalars."""
    zero = matrix.field.zero
    return [sum((a * vec[j] for j, a in row.items()), zero) for row in matrix.entries]


def oracle_rank(rows, field):
    """Independent rank: eliminate scanning columns right to left over
    reversed rows, so any pivot-order bug in the main routine shows up."""
    work = [list(r) for r in reversed(rows)]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in reversed(range(ncols)):
        src = next((i for i in range(r, len(work)) if work[i][c]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        piv = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c] / piv
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def test_identity_solve():
    m = matrix([[1, 0], [0, 1]])
    v = [QQ.of(3), QQ.of(-2)]
    result = linear_solve(m, v)
    assert result.solution == v


def test_solution_verifies_by_multiplication():
    rng = random.Random(51)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = matrix(rows)
        x = [QQ.of(rng.randint(-3, 3)) for _ in range(ncols)]
        v = apply_matrix(m, x)
        result = linear_solve(m, v)
        assert result.consistent
        assert apply_matrix(m, result.solution) == v


def test_certificate_verifies_by_pairing():
    rng = random.Random(52)
    found = 0
    while found < 25:
        nrows, ncols = rng.randint(2, 6), rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        m = matrix(rows)
        v = [QQ.of(rng.randint(-3, 3)) for _ in range(nrows)]
        result = linear_solve(m, v)
        if result.consistent:
            continue
        u = result.null_row
        for j in range(ncols):
            assert sum((a * m.rows[i][j] for i, a in u.items()), QQ.zero) == 0
        pairing = sum((a * v[i] for i, a in u.items()), QQ.zero)
        assert pairing == result.pairing and pairing != 0
        found += 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "FF7"])
def test_a_sparser_row_below_is_swapped_up_and_the_former_row_cleared(field):
    """Row 0 holds column 0, but row 1 has fewer entries and becomes its
    pivot; the former row 0, swapped down to row 1, must still be cleared.
    The same happens at column 1 with rows 1 and 2."""
    rows = [[1, 1, 1], [2, 0, 0], [0, 1, 0]]
    m = matrix(rows, field)
    elimination = linalg.Elimination(field)
    elimination.add([dict(row) for row in m.entries])
    assert list(elimination.pivots) == [0, 1, 2]
    assert [op for op in elimination.log if op[0] == "swap"] == [
        ("swap", 0, 1), ("swap", 1, 2)]
    assert [linalg._dense(row, 3, field) for row in elimination.rows] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x = [field.of(1), field.of(2), field.of(3)]
    result = linear_solve(m, apply_matrix(m, x))
    assert result.solution == x
    # rank 2 with the same swap: row 2 = row 0 + row 1
    deficient = matrix([[1, 1, 1], [2, 0, 0], [3, 1, 1]], field)
    target = [field.zero, field.zero, field.one]
    result = linear_solve(deficient, target)
    assert rank(deficient) == 2
    assert kernel_basis(deficient) == [[field.zero, -field.one, field.one]]
    u = result.null_row
    assert all(u.values())
    assert not any(sum((a * col[i] for i, a in u.items()), field.zero)
                   for col in zip(*deficient.rows))
    assert result.pairing == u[2] != 0


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "FF7"])
def test_a_resumed_batch_fills_in_a_column_an_earlier_batch_retired(field):
    """The batch [x0 + x1 = 1, x0 + x1 = 1] pivots column 0 and leaves a
    zero row, so column 1 finds no pivot and is retired; clearing x0 = 0
    of column 0 in the next batch fills column 1 back in, which must then
    be taken.  The resumed solve is the one-shot solve and the dense
    oracle's."""
    first, second = matrix([[1, 1], [1, 1]], field), matrix([[1, 0]], field)
    elimination = linalg.Elimination(field)
    assert linear_solve(first, [field.one, field.one], elimination).consistent
    assert list(elimination.pivots) == [0]
    result = linear_solve(second, [field.zero], elimination)
    assert list(elimination.pivots) == [0, 1]
    assert ("swap", 1, 2) in elimination.log  # the filled-in row 2 is column 1's pivot
    both = matrix([[1, 1], [1, 1], [1, 0]], field)
    target = [field.one, field.one, field.zero]
    assert result.solution == linear_solve(both, target).solution == [field.zero, field.one]
    assert result.solution == dense_solve(both.rows, 2, target, field)[1]


def test_malformed_inputs_are_refused():
    """An image key outside the target basis, a target of the wrong
    length, and blocks that do not share a middle basis."""
    with pytest.raises(ConstructionError, match="does not lie in the chosen block"):
        linalg.write_images([{}], [[("b", 1)]], {"a": 0})
    with pytest.raises(ValueError, match="target length 1 does not match 2"):
        linear_solve(matrix([[1], [0]]), [QQ.one])
    with pytest.raises(ValueError, match="do not share the middle basis"):
        homology_dim(matrix([[1, 0]]), matrix([[1, 0]]))


def test_solve_result_without_a_solution_is_inconsistent():
    assert not linalg.SolveResult(None, {0: QQ.one}, QQ.one).consistent
    assert linalg.SolveResult([], None, None).consistent
    result = linalg.SolveResult(solution=None, null_row={2: QQ.one}, pairing=QQ.one)
    assert (result.null_row, result.pairing) == ({2: QQ.one}, QQ.one)


def test_rank_nullity_on_random_blocks():
    rng = random.Random(53)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        m = dense_block(rows, ncols, QQ)
        r = rank(m)
        assert r == oracle_rank(rows, QQ)
        assert r + len(kernel_basis(m)) == ncols
        for vec in kernel_basis(m):
            assert all(s == 0 for s in apply_matrix(m, vec))


def test_example_boundary_system_inconsistent_for_the_x_target(example_algebra):
    """The 6x4 block out of bidegree (4,4): target sigma((X*Y)^o (x) 1).x is
    not a boundary, while the y-companion is hit by the divided power."""
    B = example_algebra
    block = diagonal_diff_block(B, 4, 4)
    assert block.shape == (6, 4)
    keys = diagonal_block_keys(B, 3, 4)
    x, y = B.ring.gen("x"), B.ring.gen("y")
    X, Y = B.gen("X"), B.gen("Y")
    target_x = linalg.coordinates(delta(X * Y * x).terms(), keys, QQ)
    result = linear_solve(block, target_x)
    assert not result.consistent
    target_y = linalg.coordinates(delta(X * Y * y).terms(), keys, QQ)
    result = linear_solve(block, target_y)
    assert result.consistent
    assert result.solution == [QQ.zero, QQ.zero, QQ.zero, QQ.one]


def test_homology_dimension_examples(example_algebra, nonliftable_problem):
    empty = dense_block([], 0, QQ)
    assert homology_dim(empty, empty) == 0  # the zero complex
    zero = matrix([[0, 0], [0, 0]])
    assert homology_dim(zero, zero) == 2 - 0  # zero maps, 2-dim middle
    # the example block ranks: dim 6 target, image rank 4 from (4,4)
    B = example_algebra
    assert rank(diagonal_diff_block(B, 4, 4)) == 4
    assert len(diagonal_block_keys(B, 3, 4)) == 6
    assert len(diagonal_block_keys(B, 4, 4)) == 4
    assert diagonal_homology_dim(B, 3, 4) == 0
    # over the ring with x^2 = 0 the class of delta(X*Y*x) survives
    B2 = nonliftable_problem.algebra
    assert diagonal_homology_dim(B2, 3, 4) >= 1
    assert diagonal_homology_dim(B2, 3, 4) == 1


def test_homology_composition_check():
    d_out = matrix([[1, 0]])
    d_in = matrix([[1], [0]])
    with pytest.raises(CompositionNonzero):
        homology_dim(d_in, d_out)


def test_homology_agrees_with_independent_elimination(example_algebra,
                                                      nonliftable_problem):
    for B in (example_algebra, nonliftable_problem.algebra):
        for n in range(1, 5):
            for w in range(0, 5):
                d_out = diagonal_diff_block(B, n, w)
                d_in = diagonal_diff_block(B, n + 1, w)
                dim = homology_dim(d_in, d_out)
                cycles = d_out.shape[1] - oracle_rank(d_out.rows, B.field)
                boundaries = oracle_rank(d_in.rows, B.field)
                assert dim == cycles - boundaries
                assert dim >= 0


def test_a_prime_field_block_holds_raw_entries_behind_field_scalars():
    """Over F_p a block's entries are raw ints, and a block of ModP entries
    is refused when it is built; ``block_matrix`` converts images of field
    scalars, and ``rows``, the target and the solution are field scalars."""
    F = PrimeField(5)
    with pytest.raises(TypeError, match="raw int"):
        BlockMatrix([{}, {0: F.of(2)}], (2, 1), F)
    m = linalg.block_matrix([[("a", F.of(2))], [("a", F.of(1)), ("b", F.of(3))]],
                            ["a", "b"], F)
    assert m.entries == [{0: 2, 1: 1}, {1: 3}]
    assert m.rows == [[F.of(2), F.of(1)], [F.zero, F.of(3)]]
    v = [F.of(1), F.of(4)]
    result = linear_solve(m, v)
    assert all(type(x) is ModP for x in result.solution)
    assert apply_matrix(m, result.solution) == v


def test_prime_field_solves():
    from dglift import PrimeField
    F = PrimeField(5)
    rows = [[F.of(2), F.of(1)], [F.of(1), F.of(2)]]  # det = 3, invertible mod 5
    m = dense_block(rows, 2, F)
    v = [F.of(1), F.of(2)]
    result = linear_solve(m, v)
    assert result.consistent
    assert apply_matrix(m, result.solution) == v


# -- oracle: the dense Gauss-Jordan the sparse solver replaced ---------------


def dense_eliminate(rows, ncols, field, track):
    """The former dense elimination, kept here as the reference,
    with the sparse solver's row rule: the pivot of column c is the row at
    or below r that holds c with the fewest nonzero entries (every column
    of the row counts, an augmented one too), the first such row on a tie.

    Returns (reduced rows, pivot columns, transform rows or None).  The
    transform T satisfies T . original = reduced.
    """
    m = len(rows)
    work = [list(row) for row in rows]
    transform = None
    if track:
        transform = [[field.one if i == j else field.zero for j in range(m)]
                     for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        src, fewest = None, None
        for i in range(r, m):
            if work[i][c]:
                count = sum(1 for x in work[i] if x)
                if fewest is None or count < fewest:
                    src, fewest = i, count
        if src is None:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
            if track:
                transform[r], transform[src] = transform[src], transform[r]
        inv = field.one / work[r][c]
        work[r] = [x * inv if x else x for x in work[r]]
        if track:
            transform[r] = [x * inv if x else x for x in transform[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                # a zero entry of row r leaves the entry of row i as it is
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
                if track:
                    transform[i] = [a - f * b if b else a
                                    for a, b in zip(transform[i], transform[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots, transform


def dense_solve(rows, ncols, target, field):
    """(rank, solution, null row, pairing) as the dense solver gave them."""
    augmented = [list(row) + [t] for row, t in zip(rows, target)]
    reduced, pivots, transform = dense_eliminate(augmented, ncols + 1, field, True)
    if ncols in pivots:
        null_row = transform[pivots.index(ncols)]
        pairing = sum((u * t for u, t in zip(null_row, target)), field.zero)
        return len(pivots) - 1, None, null_row, pairing
    solution = [field.zero] * ncols
    for row_idx, pc in enumerate(pivots):
        solution[pc] = reduced[row_idx][ncols]
    return len(pivots), solution, None, None


def assert_sparse_row(row, dense):
    """``row`` holds the nonzero entries of ``dense``, in row order."""
    assert list(row.items()) == [(i, x) for i, x in enumerate(dense) if x]


def dense_kernel(rows, ncols, field):
    reduced, pivots, _ = dense_eliminate(rows, ncols, field, False)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def random_rows(rng, field, nrows, ncols):
    """Sparse-ish random rows; some are combinations of earlier ones, so
    rank deficiency is common."""
    density = rng.choice([0.1, 0.3, 0.6, 1.0])
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            s, t = field.of(rng.randint(-2, 2)), field.of(rng.randint(-2, 2))
            rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append([field.of(rng.randint(-3, 3)) if rng.random() < density
                         else field.zero for _ in range(ncols)])
    return rows


ORACLE_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 3), (12, 5), (3, 9),
                 (5, 12), (7, 7), (10, 10)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)],
                         ids=["QQ", "FF2", "FF7"])
def test_sparse_solver_matches_dense_oracle(field):
    rng = random.Random(54 + field.char)
    scalar = ModP if field.char else Fraction
    for trial in range(80):
        nrows, ncols = ORACLE_SHAPES[trial % len(ORACLE_SHAPES)]
        rows = random_rows(rng, field, nrows, ncols)
        m = dense_block(rows, ncols, field)
        _, ref_pivots, ref_transform = dense_eliminate(
            rows, ncols, field, True)
        assert m.rows == rows
        elimination = linalg.Elimination(field)
        elimination.add([dict(row) for row in m.entries])
        pivots = list(elimination.pivots)
        assert pivots == ref_pivots
        assert list(elimination.pivots.values()) == list(range(len(pivots)))
        echelon = [linalg._dense(row, ncols, field) for row in elimination.rows]
        # echelon form: a unit pivot with zeros to its left, zero rows below
        for row, pc in zip(echelon, pivots):
            assert row[pc] == 1 and not any(row[:pc])
        assert not any(x for row in echelon[len(pivots):] for x in row)
        # T, rebuilt from the operation log, takes the original rows to these
        transform = [linalg._dense(elimination.transform_row(q), nrows, field)
                     for q in range(nrows)]
        for t_row, row in zip(transform, echelon):
            assert [sum((t * orig[j] for t, orig in zip(t_row, rows)), field.zero)
                    for j in range(ncols)] == row
        # the last pivot row of T and the rows below it are Gauss-Jordan's
        last = max(len(pivots) - 1, 0)
        assert transform[last:] == ref_transform[last:]
        assert rank(m) == len(ref_pivots)
        kernel = kernel_basis(m)
        assert kernel == dense_kernel(rows, ncols, field)
        hit = apply_matrix(m, [field.of(rng.randint(-2, 2)) for _ in range(ncols)])
        noise = [field.of(rng.randint(-1, 1)) for _ in range(nrows)]
        for target in (hit, noise):
            ref_rank, ref_solution, ref_null, ref_pairing = dense_solve(
                rows, ncols, target, field)
            result = linear_solve(m, target)
            assert ref_rank == len(pivots)
            assert result.solution == ref_solution
            assert (result.null_row is None) == (ref_null is None)
            scalars = [x for vec in kernel for x in vec]
            if result.null_row is None:
                assert result.pairing is None
                scalars += result.solution
            else:
                assert_sparse_row(result.null_row, ref_null)
                assert result.pairing == ref_pairing != 0
                scalars += list(result.null_row.values()) + [result.pairing]
            assert all(type(x) is scalar for x in scalars)
        assert linear_solve(m, hit).consistent


# -- oracle: the dense block builder and the element-level images it replaced


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
# the golden files and a fixed sample of the benchmark corpora
ORACLE_FILES = ([GOLDEN / name for name in ("liftable.dgp", "nonliftable.dgp",
                                            "combined.dgp")]
                + [CORPUS / "koszul-fp" / ("k%02d.dgp" % k) for k in range(0, 40, 5)]
                + [CORPUS / "koszul-qq" / ("k%02d.dgp" % k) for k in range(3, 40, 12)]
                + [CORPUS / "frontend" / ("f%03d.dgp" % k) for k in range(0, 400, 40)])


def oracle_problems():
    for path in ORACLE_FILES:
        yield path.name, parse_problem(path.read_text(encoding="utf-8"))


def dense_block_matrix(src_keys, dst_keys, image, field):
    """The former ``linalg.block_matrix``: a zero matrix filled column by
    column, made a block by ``dense_block``."""
    pos = {k: i for i, k in enumerate(dst_keys)}
    rows = [[field.zero] * len(src_keys) for _ in dst_keys]
    for j, key in enumerate(src_keys):
        for k, s in image(key):
            rows[pos[k]][j] = s
    return dense_block(rows, len(src_keys), field)


def assert_block_equals(block, reference):
    assert block.shape == reference.shape
    assert block.entries == reference.entries
    assert block.rows == reference.rows


def reference_gamma_system(N):
    """The γ-system as the first builder wrote it: a TensorJElement per
    unknown, differentiated, and multiplied by each later structure entry.
    Returns the block and the labels of its rows."""
    field = N.algebra.field
    unknowns, equations = [], []
    for lab, n, w in zip(N.labels, N.degrees, N.weights):
        unknowns.extend(("γ", lab, k) for k in N.tensor_keys(n, w))
        equations.extend(("eq", lab, k) for k in N.tensor_keys(n - 1, w))
    later = {lab: [] for lab in N.labels}
    for lam, column in zip(N.labels, N.columns):
        for i, entry in column:
            later[N.labels[i]].append((lam, entry))

    def image(key):
        _, mu, tkey = key
        t = TensorJElement.from_terms(N, [(tkey, field.one)])
        for k, s in t.diff().terms():
            yield ("eq", mu, k), s
        for lam, entry in later[mu]:
            for k, s in (t * entry).terms():
                yield ("eq", lam, k), -s

    def label(key):
        return "%s_%s[%s]" % (key[0], key[1], N.tensor_key_label(key[2]))

    return (dense_block_matrix(unknowns, equations, image, field),
            [label(key) for key in equations])


def test_block_builders_match_the_dense_reference():
    blocks = 0
    for name, problem in oracle_problems():
        B = problem.algebra
        R, one = B.ring, B.field.one
        for n in range(1, 5):
            for w in range(5):
                assert_block_equals(B.diff_block(n, w), dense_block_matrix(
                    B.bidegree_basis(n, w), B.bidegree_basis(n - 1, w),
                    lambda key: AlgebraElement.from_terms(B, [(key, one)]).diff().terms(),
                    B.field))
                assert_block_equals(diagonal_diff_block(B, n, w), dense_block_matrix(
                    diagonal_block_keys(B, n, w), diagonal_block_keys(B, n - 1, w),
                    lambda key: sigma(EnvelopeElement.from_terms(
                        B, [(key, one)]).diff()).terms(), B.field))
                blocks += 2
        factors = [R.gen(g) for g in R.gens] + [R.one()]
        for a in factors:
            for w_src in range(4):
                assert_block_equals(multiplication_block(R, a, w_src), dense_block_matrix(
                    [(m,) for m in R.graded_basis(w_src)],
                    [(m,) for m in R.graded_basis(w_src + a.weight())],
                    lambda key: (RingElement.from_terms(R, [(key, one)]) * a).terms(),
                    B.field))
                blocks += 1
        for N in problem.modules.values():
            for n, w in {(n + dn, w) for n, w in zip(N.degrees, N.weights)
                         for dn in (0, 1)}:
                assert_block_equals(N.diff_block(n, w), dense_block_matrix(
                    N.basis_of_bidegree(n, w), N.basis_of_bidegree(n - 1, w),
                    lambda key: ModuleElement.from_terms(N, [(key, one)]).diff().terms(),
                    B.field))
                assert_block_equals(N.tensor_diff_block(n, w), dense_block_matrix(
                    N.tensor_keys(n, w), N.tensor_keys(n - 1, w),
                    lambda key: TensorJElement.from_terms(N, [(key, one)]).diff().terms(),
                    B.field))
                blocks += 2
            matrix, _ = gamma_system(N)
            reference, labels = reference_gamma_system(N)
            assert_block_equals(matrix, reference)
            equations = gamma_layout(N)[1]
            equations.through(N.rank - 1)
            assert [equations.name(i) for i in range(len(labels))] == labels
            blocks += 1
    assert blocks > 1000


def test_the_rank2_system_is_the_gamma_system_in_its_smallest_case():
    """For a basis e, e' with d(e') = e b, b of bidegree (n, w), J_0 = 0
    leaves one block of the γ-system.  Its matrix is (-1)^{|e|} times the
    J differential from (n + 1, w); its right-hand side is delta(b)'s
    coordinates in J_(n, w); and the certificate head counts the J bases
    of (n + 1, w) and (n, w).  Checked on every such module of the golden
    files and the corpora."""
    paths = sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))
    modules = []
    for path in paths:
        problem = parse_problem(path.read_text(encoding="utf-8"))
        modules += [N for N in problem.modules.values() if N.rank == 2 and any(N.columns)]
    for N in modules:
        B = N.algebra
        (_, b), = N.columns[1]
        n, w = N.degrees[1] - N.degrees[0] - 1, N.weights[1] - N.weights[0]
        matrix, rhs = gamma_system(N)
        reference = diagonal_diff_block(B, n + 1, w)
        if N.degrees[0] % 2:
            field = B.field
            reference = BlockMatrix([{j: field.raw(-field.of(x)) for j, x in row.items()}
                                     for row in reference.entries], reference.shape, field)
        assert_block_equals(matrix, reference)
        keys = diagonal_block_keys(B, n, w)
        assert rhs == linalg.coordinates(delta(b).terms(), keys, B.field)
        assert _certificate_head(gamma_layout(N), N.labels[1]) == {
            "kind": "gamma-system", "obstructed_at": N.labels[1], "equations": len(keys),
            "unknowns": len(diagonal_block_keys(B, n + 1, w))}
    assert len(modules) == 162
    assert sum(N.degrees[0] % 2 for N in modules) == 45


def test_gamma_rhs_is_the_obstruction():
    """The γ-system's right-hand side, read from the obstruction values,
    against the former path: the coordinates of criterion_rhs(N, {}, lam)."""
    problems = [problem for _, problem in oracle_problems()]
    problems += [parse_problem(path.read_text(encoding="utf-8"))
                 for path in sorted((CORPUS / "koszul-fp").glob("*.dgp"))]
    checked = 0
    for problem in problems:
        for N in problem.modules.values():
            matrix, rhs = gamma_system(N)
            equations = [("eq", lam, k) for lam, n, w in
                         zip(N.labels, N.degrees, N.weights)
                         for k in N.tensor_keys(n - 1, w)]
            assert matrix.shape[0] == len(equations)
            assert rhs == linalg.coordinates(
                [(("eq", lam, k), s) for lam in N.labels
                 for k, s in criterion_rhs(N, {}, lam).terms()],
                equations, N.algebra.field)
            checked += 1
    assert checked >= 60


def element(B, terms):
    """The element of J with the given (key, raw scalar) terms."""
    return DiagonalElement.from_terms(B, [(key, B.field.of(s)) for key, s in terms])


def test_diagonal_arithmetic_matches_the_envelope():
    """The J key maps, which the γ-system builder and d_J write from, each
    applied to a block's keys at once, against d, b . u and u . b through
    B^e on each key's basis vector u: J sits in B^e, which the maps
    preserve, and sigma reads J's coordinates back."""
    checked = 0
    for name, problem in oracle_problems():
        B = problem.algebra
        one = B.field.one
        for N in problem.modules.values():
            entries = [b for column in N.columns for _, b in column]
            for n, w in {(n - dn, w) for n, w in zip(N.degrees, N.weights)
                         for dn in (0, 1)}:
                keys = diagonal_block_keys(B, n, w)
                images = {"diff": diagonal_key_diff(B, keys),
                          "minus diff": diagonal_key_diff(B, keys, True)}
                for i, b in enumerate(entries):
                    images["left", i] = diagonal_key_left(B, b, keys)
                    images["right", i] = diagonal_key_right(B, keys, b)
                    images["minus right", i] = diagonal_key_right(B, keys, b, True)
                for k, key in enumerate(keys):
                    u = DiagonalElement.from_terms(B, [(key, one)]).to_envelope()
                    assert element(B, images["diff"][k]) == sigma(u.diff())
                    assert element(B, images["minus diff"][k]) == -sigma(u.diff())
                    for i, b in enumerate(entries):
                        assert element(B, images["left", i][k]) == sigma(b * u)
                        assert element(B, images["right", i][k]) == sigma(u * b)
                        assert element(B, images["minus right", i][k]) == -sigma(u * b)
                    checked += 1
    assert checked > 500


def test_solver_matches_the_dense_oracle_on_real_systems():
    """The γ-system of every oracle problem, and the diagonal differential
    blocks of the golden algebras, against the dense Gauss-Jordan."""
    systems = 0
    for name, problem in oracle_problems():
        field = problem.algebra.field
        for N in problem.modules.values():
            matrix, rhs = gamma_system(N)
            rows = matrix.rows
            ref_rank, ref_solution, ref_null, ref_pairing = dense_solve(
                rows, matrix.shape[1], rhs, field)
            result = linear_solve(matrix, rhs)
            assert ref_rank == rank(matrix)
            assert result.solution == ref_solution
            if ref_null is None:
                assert result.null_row is None
            else:
                assert_sparse_row(result.null_row, ref_null)
                assert result.pairing == ref_pairing != 0
            systems += 1
    for path in ("liftable.dgp", "nonliftable.dgp", "combined.dgp"):
        B = parse_problem((GOLDEN / path).read_text(encoding="utf-8")).algebra
        for n in range(1, 6):
            for w in range(6):
                block = diagonal_diff_block(B, n, w)
                ncols = block.shape[1]
                _, pivots, _ = dense_eliminate(block.rows, ncols, B.field, False)
                assert rank(block) == len(pivots)
                assert kernel_basis(block) == dense_kernel(block.rows, ncols, B.field)
                systems += 1
    assert systems > 100
