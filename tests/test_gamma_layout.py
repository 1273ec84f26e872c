"""The γ-system's block-offset builder against the keyed builder it replaced.

``keyed_gamma_system`` is the keyed form of the builder: every unknown
and equation has a tensor key ("γ" or "eq", label, (label, m1, m2, ring
monomial)), and ``linalg.raw_block`` places each image by hashing
those keys.  The builder writes by integer block offsets, the equations
of one label at a time; stacked in label order, its blocks must give the
same matrix (the same entries in each row, in whatever order, since the
order of a row's entries reaches no output), the same right-hand
side, the same row names and the same witness, and the certificate head
at the last label, read from the bases alone, must state its shape.  The
decision stops at the first inconsistent label, which is sound because
the system is block lower-triangular in label order: a test pins that
on every module of the golden files and the corpora.
"""

import random
from pathlib import Path

from dglift import check_lift, linalg, obstruction, parse_problem, verify_certificate
from dglift.envelope import diagonal_key_diff, diagonal_key_left, diagonal_key_right
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
            for k, s in diagonal_key_left(B, entry, [jkey])[0]:
                yield ("eq", mu, (N.labels[i],) + k), s
        odd = N.degrees[k_nu] % 2
        for k, s in diagonal_key_diff(B, [jkey], odd)[0]:
            yield ("eq", mu, (nu,) + k), s
        for lam, entry in later[mu]:
            for k, s in diagonal_key_right(B, [jkey], entry, True)[0]:
                yield ("eq", lam, (nu,) + k), s

    def read_witness(solution):
        terms = {lab: [] for lab in N.labels}
        for (_, lab, key), s in zip(unknowns, solution):
            terms[lab].append((key, s))
        return {lab: TensorJElement.from_terms(N, t) for lab, t in terms.items()}

    matrix = linalg.raw_block([list(image(key)) for key in unknowns], equations, field)
    rhs = linalg.coordinates([(("eq", lam, k), s) for lam in N.labels
                              for k, s in obstruction[lam].terms()],
                             equations, field)
    labels = ["%s_%s[%s]" % (key[0], key[1], N.tensor_key_label(key[2]))
              for key in equations]
    return matrix, rhs, read_witness, labels


def parsed_modules(paths):
    for path in paths:
        yield from parse_problem(path.read_text(encoding="utf-8")).modules.values()


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
    assert matrix.entries == keyed.entries
    assert rhs == keyed_rhs
    layout = gamma_layout(N)
    last = N.labels[-1]
    assert _certificate_head(layout, last) == {
        "kind": "gamma-system", "obstructed_at": last,
        "unknowns": keyed.shape[1], "equations": keyed.shape[0]}
    assert [layout[1].name(i) for i in range(matrix.shape[0])] == labels
    field = N.algebra.field
    solution = [random_scalar(rng, field) for _ in range(matrix.shape[1])]
    witness = _read_witness(N, layout, solution)
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
    # nothing is laid out before a label is asked for
    assert unknowns.label_blocks == equations.label_blocks == []
    assert unknowns.through(-1) == 0
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
                        if shift:  # only the equations side, which the builder writes
                            assert side.position(l, key) == size
                        assert side.block_of(size) == (l, k, key[1:])
                        size += 1
        assert side.through(N.rank - 1) == side.bounds[-1] == size
    # the unknowns side indexes no key, and no block empty by bidegree is indexed
    assert unknowns.positions is None
    assert equations.positions and all(n >= 1 and w >= 1 for n, w in equations.positions)


def test_the_system_is_block_lower_triangular_in_label_order():
    """Every entry of equation block (l, k) lies in an unknown block
    (mu, nu) with mu <= l and nu >= k, on every module of the golden files
    and the corpora.  So the equations of the labels up to
    lam hold no unknown of a later label, which is what lets the decision
    stop at the first inconsistent label and its certificate name only
    those equations."""
    paths = sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))
    checked = 0
    for N in parsed_modules(paths):
        matrix, _ = gamma_system(N)
        unknowns, equations = gamma_layout(N)
        unknowns.through(N.rank - 1)
        equations.through(N.rank - 1)
        for i, row in enumerate(matrix.entries):
            l, k, _ = equations.block_of(i)
            for j in row:
                mu, nu, _ = unknowns.block_of(j)
                assert mu <= l and nu >= k, (N, equations.name(i), j)
                checked += 1
    assert checked > 10000


def all_paths():
    return sorted(GOLDEN.glob("*.dgp")) + sorted(CORPUS.glob("*/*.dgp"))


def test_a_decision_lays_out_its_system_once_and_keeps_no_table(monkeypatch):
    """``check_lift`` calls ``gamma_layout`` once for a module with a
    differential, and passes that layout on, and never for a trivial one;
    the layout dies with the decision, so N keeps no table afterwards."""
    layout = obstruction.gamma_layout
    calls = []

    def counted(N):
        calls.append(N)
        return layout(N)

    monkeypatch.setattr(obstruction, "gamma_layout", counted)
    decided = {True: 0, False: 0}
    for N in parsed_modules(all_paths()):
        calls.clear()
        check_lift(N)
        structured = any(N.columns)
        assert calls == ([N] if structured else []), N
        assert not [name for name in vars(N) if name.startswith("_memo_")], N
        decided[structured] += 1
    assert decided == {True: 679, False: 609}  # 1,288 modules


def test_a_layout_extended_label_by_label_is_the_one_laid_out_at_once():
    """The decision lays out one label at a time, the checker the stated
    prefix at once: on every module of the golden files and the corpora,
    both give the same bounds, starts, blocks, key positions, block of
    every index and row names."""
    checked = 0
    for N in parsed_modules(all_paths()):
        stepwise, at_once = gamma_layout(N), gamma_layout(N)
        for lam in range(N.rank):
            for side in stepwise:
                side.through(lam)
        for side in at_once:
            side.through(N.rank - 1)
        for one, other in zip(stepwise, at_once):
            assert one.bounds == other.bounds
            assert one.start == other.start
            assert one.label_blocks == other.label_blocks
            assert one.positions == other.positions
            size = other.bounds[-1]
            assert [one.block_of(i) for i in range(size)] == [
                other.block_of(i) for i in range(size)]
            checked += size
        size = at_once[1].bounds[-1]
        assert [stepwise[1].name(i) for i in range(size)] == [
            at_once[1].name(i) for i in range(size)]
    assert checked > 10000


def test_every_certificate_verifies_on_a_freshly_parsed_copy():
    """The checker lays out its own system: a certificate re-verifies on a
    copy of its problem parsed anew, which shares no state with the module
    the decision ran on."""
    certified = 0
    for path in all_paths():
        text = path.read_text(encoding="utf-8")
        problem, fresh = parse_problem(text), parse_problem(text)
        for name, N in problem.modules.items():
            report = check_lift(N)
            if not report.liftable:
                assert verify_certificate(fresh.modules[name], report), (path.name, name)
                certified += 1
    assert certified == 327
