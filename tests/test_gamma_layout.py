"""The γ-system's block-offset builder against the keyed builder it replaced.

``keyed_gamma_system`` is the keyed form of the builder: every unknown
and equation has a tensor key ("γ" or "eq", label, (label, m1, m2, ring
monomial)), and ``linalg.block_matrix`` places each image by hashing
those keys.  The builder writes by integer block offsets, the equations
of one label at a time; stacked in label order, its blocks must give the
same matrix (entries in the same order in each row), the same right-hand
side, the same row names and the same witness, and the certificate head
at the last label, read from the bases alone, must state its shape.  The
decision stops at the first inconsistent label, which is sound because
the system is block lower-triangular in label order: a test pins that
on every module of the golden files and the corpora.
"""

import random
from pathlib import Path

from dglift import linalg, parse_problem
from dglift.envelope import diagonal_key_diff, diagonal_key_left, diagonal_key_right
from dglift.errors import DGLiftError
from dglift.obstruction import (_certificate_head, _read_witness, gamma_layout,
                                obstruction_values)
from dglift.randomgen import random_algebra, random_module, random_scalar, standard_rings
from dglift.semifree import TensorJElement

from conftest import GOLDEN, gamma_system

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
    matrix, rhs = gamma_system(N)
    keyed, keyed_rhs, keyed_witness, labels = keyed_gamma_system(N, obstruction)
    assert matrix.shape == keyed.shape
    assert [list(row.items()) for row in matrix.entries] == [
        list(row.items()) for row in keyed.entries]
    assert rhs == keyed_rhs
    equations = gamma_layout(N)[1]
    assert [equations.name(i) for i in range(matrix.shape[0])] == labels
    last = N.labels[-1]
    assert _certificate_head(N, last) == {
        "kind": "gamma-system", "obstructed_at": last,
        "unknowns": keyed.shape[1], "equations": keyed.shape[0]}
    field = N.algebra.field
    solution = [random_scalar(rng, field) for _ in range(matrix.shape[1])]
    witness = _read_witness(N, solution)
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
    # nothing is laid out before a label is asked for
    assert unknowns.blocks == equations.blocks == [] and unknowns.through(-1) == 0
    for side, shift in ((unknowns, 0), (equations, 1)):
        size = 0
        for l, (n, w) in enumerate(zip(N.degrees, N.weights)):
            assert side.bounds[l] == size
            side.through(l)
            for k, (d, wt) in enumerate(zip(N.degrees, N.weights)):
                assert side.start[l][k] == size
                assert side.bidegree[l][k] == (n - shift - d, w - wt)
                keys = N.tensor_keys(n - shift, w)
                for key in keys:
                    if key[0] == N.labels[k]:
                        assert side.position(l, key) == size
                        assert side.block_of(size) == (l, k, key[1:])
                        size += 1
        assert side.through(N.rank - 1) == side.bounds[-1] == size


def test_the_system_is_block_lower_triangular_in_label_order():
    """Every entry of equation block (l, k) lies in an unknown block
    (mu, nu) with mu <= l and nu >= k, on every module of the golden files
    and the corpora that parses.  So the equations of the labels up to
    lam hold no unknown of a later label, which is what lets the decision
    stop at the first inconsistent label and its certificate name only
    those equations."""
    paths = sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))
    checked = 0
    for N in parsed_modules(paths):
        matrix, _ = gamma_system(N)
        unknowns, equations = gamma_layout(N)
        for i, row in enumerate(matrix.entries):
            l, k, _ = equations.block_of(i)
            for j in row:
                mu, nu, _ = unknowns.block_of(j)
                assert mu <= l and nu >= k, (N, equations.name(i), j)
                checked += 1
    assert checked > 10000
