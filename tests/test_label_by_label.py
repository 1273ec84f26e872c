"""The label-by-label decision against a prefix-by-prefix reference.

``one_shot_gamma_system`` is the builder that wrote N's whole γ-system at
once, before the decision took the equations one label at a time; it is
kept here as the reference, its d(j) piece copied from ``diagonal_diff_block``,
the d_J matrix that ``homology`` reads.  Each label's equations must be
that label's rows of it.  For a NOT_LIFTABLE module the stated label
"obstructed_at" must be the least label lam whose equations, with those
of every earlier label, are inconsistent: the rows of labels up to lam of
the whole system, solved in one batch by ``linear_solve``.  For a
LIFTABLE module the witness must be the reference's full solve, free
variables zero.
"""

from pathlib import Path

import pytest

from dglift import (Connection, check_lift, envelope, linalg, parse_problem, psi_values,
                    verify_certificate, verify_witness)
from dglift.envelope import diagonal_diff_block, diagonal_key_left, diagonal_key_right
from dglift.obstruction import _equation_block, _later, gamma_layout, obstruction_values
from dglift.semifree import TensorJElement

from conftest import GOLDEN

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def one_shot_gamma_system(N, obstruction):
    """(matrix, rhs, read_witness) of N's whole γ-system, written unknown
    block by unknown block: d(t) into equation mu and -(t b[mu][lam]) into
    each later equation lam, at the offsets of ``gamma_layout``."""
    B = N.algebra
    labels = N.labels
    unknowns, equations = gamma_layout(N)
    ncols, nrows = unknowns.through(N.rank - 1), equations.through(N.rank - 1)
    entries = [{} for _ in range(nrows)]
    later = _later(N)
    blocks = [(column, mu, nu, keys) for mu, blocks in enumerate(unknowns.label_blocks)
              for column, nu, keys in blocks]
    field = B.field
    for column, mu, nu, keys in blocks:
        for i, entry in N.columns[nu]:
            linalg.write_images(entries, diagonal_key_left(B, entry, keys),
                                *equations.offsets(mu, i), column)
        odd = N.degrees[nu] % 2
        d_j = diagonal_diff_block(B, *unknowns.bidegree[mu][nu])
        for i, targets in enumerate(d_j.entries, equations.start[mu][nu]):
            row = entries[i]
            for j, s in targets.items():
                row[column + j] = field.raw(-field.of(s)) if odd else s
        for lam, entry in later[mu]:
            linalg.write_images(entries, diagonal_key_right(B, keys, entry, True),
                                *equations.offsets(lam, nu), column)

    rhs = [field.zero] * nrows
    for lam, lab in enumerate(labels):
        for key, s in obstruction[lab].terms():
            rhs[equations.position(lam, key)] = s

    def read_witness(solution):
        terms = {lab: [] for lab in labels}
        for column, mu, nu, keys in blocks:
            head = (labels[nu],)
            terms[labels[mu]].extend(
                zip([head + key for key in keys], solution[column:column + len(keys)]))
        return {lab: TensorJElement.from_terms(N, t) for lab, t in terms.items()}

    matrix = linalg.BlockMatrix(entries, (nrows, ncols), B.field)
    return matrix, rhs, read_witness


def corpus_modules(structured=True):
    paths = (sorted(GOLDEN.glob("*.dgp")) + sorted((CORPUS / "koszul-fp").glob("*.dgp"))
             + sorted((CORPUS / "koszul-qq").glob("*.dgp")))
    return [N for path in paths
            for N in parse_problem(path.read_text(encoding="utf-8")).modules.values()
            if any(N.columns) or not structured]


@pytest.fixture(scope="module")
def decided():
    return [(N, check_lift(N)) for N in corpus_modules()]


def test_each_label_block_is_its_rows_of_the_reference():
    """The builder writes d(j) from ``diagonal_key_diff``, and the reference
    copies it from ``diagonal_diff_block``, the matrix ``homology`` reads:
    the equations of each label, matrix and right-hand side, must be that
    label's rows of the whole system, entry for entry, on every module."""
    labels = 0
    for N in corpus_modules(structured=False):
        obstruction = obstruction_values(N)
        matrix, rhs, _ = one_shot_gamma_system(N, obstruction)
        layout = gamma_layout(N)
        unknowns, equations = layout
        for lam in range(N.rank):
            block, block_rhs = _equation_block(N, layout, lam, obstruction)
            first, end = equations.bounds[lam], equations.bounds[lam + 1]
            assert block.shape == (end - first, unknowns.bounds[lam + 1])
            assert block.entries == matrix.entries[first:end], (N, N.labels[lam])
            assert block_rhs == rhs[first:end], (N, N.labels[lam])
            labels += 1
    assert labels == 298  # of 84 modules: 4 golden, 40 of each Koszul corpus


def test_obstructed_at_is_the_least_inconsistent_prefix(decided):
    stops = early = 0
    for N, report in decided:
        if report.liftable:
            continue
        matrix, rhs, _ = one_shot_gamma_system(N, obstruction_values(N))
        equations = gamma_layout(N)[1]
        top = N.index[report.certificate["obstructed_at"]]
        for lam in range(top + 1):
            end = equations.through(lam)
            prefix = linalg.BlockMatrix(matrix.entries[:end], (end, matrix.shape[1]),
                                        matrix.field)
            assert linalg.linear_solve(prefix, rhs[:end]).consistent == (lam < top), (
                N, N.labels[lam])
        stops += 1
        early += top < N.rank - 1
    # 2 golden modules and 22 of each Koszul corpus; most stop early
    assert stops == 46 and early > 20


def test_every_named_row_is_an_equation_up_to_obstructed_at(decided):
    for N, report in decided:
        if report.liftable:
            continue
        assert verify_certificate(N, report)
        top = N.index[report.certificate["obstructed_at"]]
        equations = gamma_layout(N)[1]
        names = {equations.name(i): equations.block_of(i)[0]
                 for i in range(equations.through(top))}
        assert report.certificate["equations"] == len(names)
        assert all(names[item["row"]] <= top
                   for item in report.certificate["null_functional"])


def test_a_liftable_witness_is_the_full_solve(decided):
    checked = 0
    for N, report in decided:
        if not report.liftable:
            continue
        matrix, rhs, read_witness = one_shot_gamma_system(N, obstruction_values(N))
        expected = read_witness(linalg.linear_solve(matrix, rhs).solution)
        assert list(report.witness) == list(expected)
        assert all(report.witness[lab] == expected[lab] for lab in N.labels)
        checked += 1
    assert checked >= 20


def test_the_checker_reaches_no_j_key_map(decided, monkeypatch):
    """The witness and certificate checkers and the splitting sigma_N d rho_N
    compute by the element rules of B, B^e and J, which computes in B^e,
    never by the maps on one J basis key that the builder writes from: with
    those maps raising, every witness and certificate still re-verifies,
    the connection of every witness is a DG connection (psi = 0), and
    every splitting still runs, equal to the obstruction the decision
    used."""
    def unreachable(*args):
        raise AssertionError("a J key map was reached")

    for name in ("diagonal_key_diff", "diagonal_key_left", "diagonal_key_right"):
        monkeypatch.setattr(envelope, name, unreachable)
    certified = verified = 0
    for N, report in decided:
        assert obstruction_values(N, "splitting") == report.obstruction
        if report.liftable:
            assert verify_witness(N, report.witness)
            assert not any(psi_values(Connection(N, report.witness)).values())
            verified += 1
        else:
            assert verify_certificate(N, report)
            certified += 1
    assert (certified, verified) == (46, 22)
