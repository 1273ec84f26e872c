"""The γ-system's block-offset builder against the keyed builder it replaced.

``keyed_gamma_system`` is the former ``obstruction._assemble_global_system``:
every unknown and equation has a tensor key ("γ" or "eq", label, (label,
m1, m2, ring monomial)), and ``linalg.block_matrix`` places each image by
hashing those keys.  The builder now writes by integer block offsets; it
must give the same matrix (entries in the same order in each row), the
same right-hand side, the same row names and the same witness, and the
certificate head, read from the bases alone, must state its shape.
"""

import random
from pathlib import Path

from dglift import linalg, parse_problem
from dglift.envelope import diagonal_key_diff, diagonal_key_left, diagonal_key_right
from dglift.errors import DGLiftError
from dglift.obstruction import (_assemble_global_system, _certificate_head,
                                gamma_layout, obstruction_values)
from dglift.randomgen import random_algebra, random_module, random_scalar, standard_rings
from dglift.semifree import TensorJElement

from conftest import GOLDEN

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def keyed_gamma_system(N, obstruction):
    """(matrix, rhs, read_witness, row labels) as the keyed builder gave them."""
    B = N.algebra
    field = B.field
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
        nu, jkey = tkey[0], tkey[1:]
        k_nu = N.index[nu]
        for i, entry in N.columns[k_nu]:
            for k, s in diagonal_key_left(B, entry, jkey):
                yield ("eq", mu, (N.labels[i],) + k), s
        odd = N.degrees[k_nu] % 2
        for k, s in diagonal_key_diff(B, jkey):
            yield ("eq", mu, (nu,) + k), -s if odd else s
        for lam, entry in later[mu]:
            for k, s in diagonal_key_right(B, jkey, entry):
                yield ("eq", lam, (nu,) + k), -s

    def read_witness(solution):
        terms = {lab: [] for lab in N.labels}
        for (_, lab, key), s in zip(unknowns, solution):
            terms[lab].append((key, s))
        return {lab: TensorJElement.from_terms(N, t) for lab, t in terms.items()}

    matrix = linalg.block_matrix(unknowns, equations, image, field)
    rhs = linalg.coordinates([(("eq", lam, k), s) for lam in N.labels
                              for k, s in obstruction[lam].terms()],
                             equations, field)
    labels = ["%s_%s[%s]" % (key[0], key[1], N.tensor_key_label(key[2]))
              for key in equations]
    return matrix, rhs, read_witness, labels


def parsed_modules(paths):
    for path in paths:
        try:
            problem = parse_problem(path.read_text(encoding="utf-8"))
        except DGLiftError:  # the frontend pool's known parser rejections
            continue
        yield from problem.modules.values()


def random_modules():
    rng = random.Random(15)
    for ring in standard_rings():
        for _ in range(4):
            B = random_algebra(rng, ring)
            for _ in range(3):
                yield random_module(rng, B)


def assert_same_system(N, rng):
    obstruction = obstruction_values(N)
    matrix, rhs, read_witness = _assemble_global_system(N, obstruction)
    keyed, keyed_rhs, keyed_witness, labels = keyed_gamma_system(N, obstruction)
    assert matrix.shape == keyed.shape
    assert [list(row.items()) for row in matrix.entries] == [
        list(row.items()) for row in keyed.entries]
    assert rhs == keyed_rhs
    equations = gamma_layout(N)[1]
    assert [equations.name(i) for i in range(matrix.shape[0])] == labels
    assert _certificate_head(N) == {
        "kind": "gamma-system", "unknowns": keyed.shape[1], "equations": keyed.shape[0]}
    field = N.algebra.field
    solution = [random_scalar(rng, field) for _ in range(matrix.shape[1])]
    witness = read_witness(solution)
    expected = keyed_witness(solution)
    assert list(witness) == list(expected)
    assert all(witness[lab] == expected[lab] for lab in N.labels)


def test_block_offsets_match_the_keyed_builder():
    rng = random.Random(7)
    paths = (sorted(GOLDEN.glob("*.dgp"))
             + sorted((CORPUS / "koszul-fp").glob("*.dgp"))
             + sorted((CORPUS / "koszul-qq").glob("*.dgp"))
             + sorted((CORPUS / "frontend").glob("*.dgp")))
    checked = entries = 0
    for N in list(parsed_modules(paths)) + list(random_modules()):
        assert_same_system(N, rng)
        checked += 1
        entries += N.rank
    assert checked > 1000 and entries > 3000


def test_the_layout_numbers_rows_and_columns_block_by_block():
    problem = parse_problem((GOLDEN / "nonliftable.dgp").read_text(encoding="utf-8"))
    N = problem.modules["M"]
    unknowns, equations = gamma_layout(N)
    assert gamma_layout(N)[0] is unknowns
    for side, shift in ((unknowns, 0), (equations, 1)):
        size = 0
        for l, (n, w) in enumerate(zip(N.degrees, N.weights)):
            for k, (d, wt) in enumerate(zip(N.degrees, N.weights)):
                assert side.start[l][k] == size
                assert side.bidegree[l][k] == (n - shift - d, w - wt)
                keys = N.tensor_keys(n - shift, w)
                for key in keys:
                    if key[0] == N.labels[k]:
                        assert side.position(l, key) == size
                        assert side.block_of(size) == (l, k, key[1:])
                        size += 1
        assert side.size == size
