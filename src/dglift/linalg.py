"""Exact sparse linear algebra over a ground field.

A ``BlockMatrix`` holds one representation: ``entries``, one {column:
scalar} dict per row of its nonzero entries, each the elimination's own
raw scalar of the ambient field (``field.raw``: an int 0 < v < p over
F_p, a Fraction over the rationals), with its shape and field, and
nothing else: a caller that names rows holds the basis keys it built the
block from.  Every other scalar this module takes or gives is a field
scalar (ModP over F_p): ``block_matrix`` builds a block from images in
field scalars, converting each once; the dense ``rows``, derived on
demand, the target of ``linear_solve``, its solution and null row, and
the vectors of ``coordinates`` and ``kernel_basis`` are field scalars
too.  Only ``write_images``, which writes images into rows as given, a
block's or, at the offsets of a block, a larger system's, and
``raw_block`` take raw scalars: the J key maps give them, and the
gamma-system builder writes them straight in.  A block built over F_p
from field scalars is refused with a TypeError.  The one
elimination routine, ``Elimination.add``, is a sparse forward
elimination on copies of the rows, in raw scalars: a column index names
the rows that may hold each column, so a pivot step touches only the
rows below it that hold the pivot column, and no row above a pivot is
ever cleared.  It takes its rows in batches and can be resumed: a
batch is appended below the rows already eliminated, cleared of the
pivot columns found so far by their pivot rows, and then pivoted on its
own remaining columns.  One index, {pivot column: pivot row} in the
order found, serves the resumed batches, the back substitution and the
solve's test of the target column.  ``rank`` and ``kernel_basis`` feed
one batch; ``linear_solve`` feeds one, or the next batch of an
elimination its caller keeps, so that a system whose equations arrive in
blocks is decided after each block and can stop at the first block that
makes it inconsistent.  Solutions and kernel vectors are read off the
echelon rows by the elimination's back substitution, which gives the
same unique vectors (free variables zero) that the fully reduced rows
give.  An elimination does not carry the transform T along: it logs its
row operations, and only an inconsistent solve rebuilds the one row of T
it returns, the pivot row of the target column, by replaying the log
backwards; that row, and every row of T below it, is the one a full
Gauss-Jordan on the same pivot rows gives.  A solve returns the
solution, or that row as a sparse null functional with its nonzero
pairing against the target, and nothing else: a caller that wants the
rank asks ``rank``.

Elimination is fully deterministic.  Columns are taken left to right
within a batch, and the pivot columns of rows eliminated in any batches
are those of the reduced row echelon form of all of them, so the pivot
columns, the rank, the solutions and the kernels do not depend on which
row supplies a pivot, nor on how the rows were split into batches.  The
pivot row of a new column is the sparsest row of its batch that holds
it, the first of those on a tie, in the manner of Markowitz (Management
Sci. 1957; Duff, Erisman and Reid, *Direct Methods for Sparse Matrices*,
ch. 7): it makes less fill-in than the topmost row.  The null functional
depends on the rows chosen, and so on the batches, and is reproducible
bit for bit: the row operations of one pivot step commute, so the order
in which a set of holders is read does not reach it.
"""

import sys
from bisect import insort

from .errors import CompositionNonzero, ConstructionError


class BlockMatrix:
    """A matrix block between two finite bases.

    ``entries[i][j]`` is the coefficient of the i-th target basis vector in
    the image of the j-th source basis vector, a raw scalar of ``field``;
    a missing entry is zero.  ``shape`` is (targets, sources).
    ``block_matrix`` builds a block from the images of a basis in field
    scalars.
    """

    def __init__(self, entries, shape, field):
        if field.char:  # a ModP entry would fail deep in the elimination
            first = next((row for row in entries if row), {})
            if any(type(x) is not int for x in first.values()):
                raise TypeError("a block over %s holds raw int entries (field.raw); "
                                "block_matrix converts field scalars" % field)
        self.entries = entries
        self.shape = shape
        self.field = field

    @property
    def rows(self):
        """The dense rows of field scalars, built from ``entries`` on each read."""
        return [_dense(row, self.shape[1], self.field) for row in self.entries]


def write_images(entries, images, pos, row=0, column=0):
    """Write ``images``, one list of (target key, nonzero scalar) terms
    with distinct keys per source basis vector, into the rows ``entries``:
    the j-th image fills column ``column + j``, and a target key k lands
    in row ``row + pos[k]``; a target key outside ``pos`` is a
    ConstructionError.  The scalars are written as given."""
    try:
        for j, terms in enumerate(images, column):
            for k, s in terms:
                entries[row + pos[k]][j] = s
    except KeyError:
        raise ConstructionError("element does not lie in the chosen block")


def raw_block(images, dst_keys, field) -> BlockMatrix:
    """The matrix of a linear map on a finite basis into the keyed basis
    ``dst_keys``, given by the images of its basis vectors as lists of
    (key, raw scalar) terms, written by ``write_images``."""
    entries = [{} for _ in dst_keys]
    write_images(entries, images, {k: i for i, k in enumerate(dst_keys)})
    return BlockMatrix(entries, (len(dst_keys), len(images)), field)


def block_matrix(images, dst_keys, field) -> BlockMatrix:
    """``raw_block`` of images whose scalars are field scalars."""
    raw = field.raw
    return raw_block([[(k, raw(s)) for k, s in terms] for terms in images],
                     dst_keys, field)


def coordinates(terms, keys, field) -> list:
    """Dense vector of (key, field scalar) terms against the ordered basis
    ``keys``: the one column of the block whose image is ``terms``."""
    column = [{} for _ in keys]
    write_images(column, [terms], {k: i for i, k in enumerate(keys)})
    return [row.get(0, field.zero) for row in column]


class SolveResult:
    """``solution`` is a list, or None when the system is inconsistent;
    then ``null_row``, a sparse functional {row: scalar} in row order, and
    ``pairing`` say why: u = null_row has u A = 0 while ``pairing`` =
    u . target is nonzero.  Both are None for a solution."""

    def __init__(self, solution, null_row, pairing):
        self.solution = solution
        self.null_row = null_row
        self.pairing = pairing

    @property
    def consistent(self):
        return self.solution is not None


# The column key of the target in an augmented row: greater than every
# column of a matrix, so taken last, however wide a batch is.
TARGET = sys.maxsize


def _dense(row, n, field):
    """A sparse row of raw scalars as a list of n field scalars."""
    vec = [field.zero] * n
    for j, x in row.items():
        vec[j] = field.of(x)
    return vec


def _scaled(row, s, p):
    if p:
        return {j: x * s % p for j, x in row.items()}
    return {j: x * s for j, x in row.items()}


class Elimination:
    """A sparse forward elimination of {column: scalar} rows, fed in batches.

    ``rows`` holds every row fed so far, in place: the first
    len(``pivots``) are the pivot rows, and the rows after them are empty
    once their batch is done.  ``pivots`` maps each pivot column c to its
    pivot row, which has a unit entry at c and nothing before it in the
    column order; it lists them in the order found, the k-th column's
    pivot row being row k.  A pivot row is never changed again, and a
    later batch only appends rows and pivots.  ``log`` holds the row
    operations in order (see ``add``); ``back_substitute`` and
    ``transform_row`` read solutions and rows of the transform off the
    rows, pivots and log.  Over F_p the scalars are raw ints mod p
    throughout.
    """

    def __init__(self, field):
        self.field = field
        self.rows, self.pivots = [], {}
        self.log = []
        self._holders = {}

    def add(self, rows):
        """Append ``rows`` and eliminate them, column by column in
        increasing order.

        A column an earlier batch pivoted is cleared from the new rows by
        its pivot row.  Any other column c takes its pivot from the rows
        after the pivot rows: the one that holds c with the fewest
        entries, the one of least index on a tie, swapped up to the next
        pivot row r and scaled to 1; only the other rows after the pivot
        rows that hold c are cleared, the former row r among them, at its
        new place when the swap moved it.  ``_holders[c]`` is the set of
        rows that may hold column c: built from the new rows, extended on
        fill-in and swaps, and read once, when c is taken; a stale entry
        fails ``c in rows[i]``.  The columns to take are those of the new
        rows and those that fill-in from an earlier batch's pivot row
        adds.  One batch fed to a fresh elimination is the whole of a
        one-shot elimination.

        The row operations are logged in order, as ("swap", r, s),
        ("scale", r, inv) and ("sub", i, f, r) for row i -= f * row r; the
        transform T with T . original = echelon is their product, and
        ``transform_row`` rebuilds any one row of it.  The last pivot
        row of T and every row below it are those a full Gauss-Jordan on
        the same pivot rows gives, which only adds operations on earlier
        pivot rows.
        """
        p = self.field.char
        work, pivots, log = self.rows, self.pivots, self.log
        holders = self._holders
        for i, row in enumerate(rows, len(work)):
            for j in row:
                held = holders.get(j)
                if held is None:
                    holders[j] = {i}
                else:
                    held.add(i)
        work.extend(rows)
        m = len(work)
        r = len(pivots)
        # -c for each column c to take, ascending, so the least c pops first
        columns = sorted(-j for j in holders)
        while columns and r < m:
            c = -columns.pop()
            # (entries, index) of each row after the pivot rows that holds c
            below = [(len(row), i) for i in holders.pop(c)
                     if i >= r and c in (row := work[i])]
            if not below:
                continue
            k = pivots.get(c)
            if k is None:
                k, src = r, min(below)[1]
                if src != r:
                    work[r], work[src] = work[src], work[r]
                    for j in work[src]:
                        if j != c:
                            holders[j].add(src)
                    log.append(("swap", r, src))
                inv = pow(work[r][c], -1, p) if p else self.field.one / work[r][c]
                if inv != 1:
                    work[r] = _scaled(work[r], inv, p)
                    log.append(("scale", r, inv))
                pivots[c] = r
                r += 1
            else:
                src = -1  # the pivot row is an earlier one: no row below moved
            pivot = work[k]
            for _, i in below:
                if i == src:
                    continue
                if i == k:  # the former row k, swapped down to src
                    i = src
                row = work[i]
                f = row[c]
                for j, b in pivot.items():  # row -= f * pivot
                    if j in row:
                        a = (row[j] - f * b) % p if p else row[j] - f * b
                        if a:
                            row[j] = a
                        else:
                            del row[j]
                    else:
                        row[j] = -f * b % p if p else -f * b
                        try:
                            holders[j].add(i)
                        except KeyError:  # a column only an earlier pivot row held
                            holders[j] = {i}
                            insort(columns, -j)
                log.append(("sub", i, f, k))

    def back_substitute(self, x):
        """Extend ``x``, raw scalars on non-pivot columns, to the pivot
        columns so that each pivot row pairs with it to zero: the greatest
        pivot column first, each from the values already set."""
        p, rows = self.field.char, self.rows
        for c, k in sorted(self.pivots.items(), reverse=True):
            s = sum(a * x[j] for j, a in rows[k].items() if j in x)
            if p:
                s %= p
            if s:
                x[c] = -s % p if p else -s
        return x

    def transform_row(self, q):
        """Row q of the transform T over the rows fed so far, as a sparse
        row of raw scalars.

        e_q . T is e_q times the logged operations' matrices, last
        operation first, so the log is replayed backwards on a row vector
        v: a swap exchanges v_r and v_s, a scaling sets v_r = v_r * inv,
        and row i -= f * row r sets v_r = v_r - f * v_i.  Exact arithmetic
        makes this the very row that tracking T through the elimination
        gives.
        """
        p = self.field.char
        v = [0] * len(self.rows)
        v[q] = 1 if p else self.field.one
        for op in reversed(self.log):
            if op[0] == "sub":
                _, i, f, r = op
                if v[i]:
                    v[r] = (v[r] - f * v[i]) % p if p else v[r] - f * v[i]
            elif op[0] == "scale":
                _, r, inv = op
                v[r] = v[r] * inv % p if p else v[r] * inv
            else:
                _, r, s = op
                v[r], v[s] = v[s], v[r]
        return {j: x for j, x in enumerate(v) if x}


def _echelon(matrix: BlockMatrix) -> Elimination:
    """The matrix's rows eliminated in one batch."""
    elimination = Elimination(matrix.field)
    elimination.add([dict(row) for row in matrix.entries])
    return elimination


def rank(matrix: BlockMatrix) -> int:
    return len(_echelon(matrix).pivots)


def kernel_basis(matrix: BlockMatrix) -> list:
    """Basis of ker(matrix) as source-coordinate vectors, echelon order:
    one per free column, which it sets to 1 and every other free column
    to 0."""
    ncols = matrix.shape[1]
    echelon = _echelon(matrix)
    return [_dense(echelon.back_substitute({free: 1}), ncols, matrix.field)
            for free in range(ncols) if free not in echelon.pivots]


def linear_solve(matrix: BlockMatrix, target: list, elimination=None) -> SolveResult:
    """Solve matrix . x = target by deterministic elimination, target a
    list of field scalars.

    Free variables are set to zero, so the returned solution is the unique
    one selected by the fixed basis order.  On failure the null row refers
    to the original (unreduced) rows.

    ``elimination``, an ``Elimination`` that earlier calls fed,
    makes the rows of matrix and target its next batch: the result is that
    of every row fed so far, the null row numbering them in the order they
    came.  Each batch's matrix spans every column an earlier batch holds,
    and the solution has matrix.shape[1] entries.
    """
    field = matrix.field
    p, raw = field.char, field.raw
    m, ncols = matrix.shape
    if len(target) != m:
        raise ValueError("target length %d does not match %d matrix rows"
                         % (len(target), m))
    if elimination is None:
        elimination = Elimination(field)
    # copies: the elimination works in place, and the matrix keeps its rows
    augmented = [dict(row) for row in matrix.entries]
    for row, t in zip(augmented, target):
        if t:
            row[TARGET] = raw(t)
    elimination.add(augmented)
    q = elimination.pivots.get(TARGET)
    if q is not None:
        # a pivot in the target column exhibits the inconsistency; T takes
        # the targets to that row's one entry, so it is u . target
        u = {i: field.of(x) for i, x in elimination.transform_row(q).items()}
        return SolveResult(None, u, field.of(elimination.rows[q][TARGET]))
    # x[TARGET] = -1 puts the target on the right: A x = target
    x = elimination.back_substitute({TARGET: p - 1 if p else -1})
    del x[TARGET]
    return SolveResult(_dense(x, ncols, field), None, None)


def homology_dim(d_in: BlockMatrix, d_out: BlockMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differential blocks.

    d_in maps the next degree into this one, d_out maps this degree down.
    """
    if d_out.shape[1] != d_in.shape[0]:
        raise ValueError("blocks do not share the middle basis")
    p = d_out.field.char
    for out_row in d_out.entries:
        product = {}
        for k, a in out_row.items():
            for j, b in d_in.entries[k].items():
                product[j] = product.get(j, 0) + a * b
        if any(x % p if p else x for x in product.values()):
            raise CompositionNonzero("blocks do not compose to zero")
    cycles = d_out.shape[1] - rank(d_out)
    return cycles - rank(d_in)
